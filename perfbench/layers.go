package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dwmaxerr/internal/dist"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
	"dwmaxerr/internal/serve"
)

// The wrappers in this file measure one layer each from outside: they
// implement the public interface the program accepts, delegate to the
// real implementation, and time or count the calls.

// meteredEngine wraps an mr engine: it counts and times Engine.Run, times
// the job's Map/Combine/Reduce closures and their emit callbacks, and
// opens a benchmark-owned span around each run so the engine's own job
// span nests below it.
type meteredEngine struct {
	inner mr.TracingEngine

	jobs, runNs, userNs, emitNs, busyNs atomic.Int64
	allocBytes, shuffleRecords, retries atomic.Int64
}

func (e *meteredEngine) Run(job *mr.Job) (*mr.Result, error) {
	return e.RunWith(job, mr.JobOptions{})
}

func (e *meteredEngine) RunWith(job *mr.Job, opts mr.JobOptions) (*mr.Result, error) {
	span := opts.Trace.Child(spanEngineRun)
	span.SetStr("job", job.Name)
	wrapped := *job
	wrapped.Map = e.wrapMap(job.Map)
	wrapped.Combine = e.wrapReduce(job.Combine)
	wrapped.Reduce = e.wrapReduce(job.Reduce)
	a0 := heapAllocBytes()
	t0 := time.Now()
	res, err := e.inner.RunWith(&wrapped, mr.JobOptions{Trace: span})
	d := time.Since(t0)
	span.End()
	e.jobs.Add(1)
	e.runNs.Add(int64(d))
	e.allocBytes.Add(int64(heapAllocBytes() - a0))
	if res != nil {
		m := res.Metrics
		e.shuffleRecords.Add(m.ShuffleRecords)
		e.retries.Add(int64(m.MapRetries + m.ReduceRetries))
		for _, st := range append(append([]mr.TaskStat(nil), m.MapStats...), m.ReduceStats...) {
			e.busyNs.Add(int64(st.Duration))
		}
	}
	return res, err
}

// timedEmit wraps emit, adding the time spent inside it to *in. One task
// runs on one goroutine, so *in needs no synchronization.
func timedEmit(emit mr.Emit, in *time.Duration) mr.Emit {
	return func(k, v []byte) error {
		t := time.Now()
		err := emit(k, v)
		*in += time.Since(t)
		return err
	}
}

func (e *meteredEngine) wrapMap(f mr.MapFunc) mr.MapFunc {
	if f == nil {
		return nil
	}
	return func(ctx mr.TaskContext, split mr.Split, emit mr.Emit) error {
		var in time.Duration
		t := time.Now()
		err := f(ctx, split, timedEmit(emit, &in))
		e.account(time.Since(t), in)
		return err
	}
}

func (e *meteredEngine) wrapReduce(f mr.ReduceFunc) mr.ReduceFunc {
	if f == nil {
		return nil
	}
	return func(ctx mr.TaskContext, key []byte, values [][]byte, emit mr.Emit) error {
		var in time.Duration
		t := time.Now()
		err := f(ctx, key, values, timedEmit(emit, &in))
		e.account(time.Since(t), in)
		return err
	}
}

func (e *meteredEngine) account(total, inEmit time.Duration) {
	e.userNs.Add(int64(total - inEmit))
	e.emitNs.Add(int64(inEmit))
}

// timedStore wraps a serve.Store and records every shard load.
type timedStore struct {
	inner serve.Store
	loads samples // ms
}

func (s *timedStore) Load(k serve.ShardKey) (*serve.Shard, error) {
	t := time.Now()
	sh, err := s.inner.Load(k)
	s.loads.addDur(time.Since(t))
	return sh, err
}

func (s *timedStore) Keys() ([]serve.ShardKey, error) { return s.inner.Keys() }

// timedCheckpoint wraps a dist.CheckpointStore: it records every Put and
// sums the time spent inside Get and Put.
type timedCheckpoint struct {
	inner  dist.CheckpointStore
	puts   samples // ms
	bytes  atomic.Int64
	busyNs atomic.Int64
}

func (c *timedCheckpoint) Get(key string) ([]byte, bool, error) {
	t := time.Now()
	b, ok, err := c.inner.Get(key)
	c.busyNs.Add(int64(time.Since(t)))
	return b, ok, err
}

func (c *timedCheckpoint) Put(key string, payload []byte) error {
	t := time.Now()
	err := c.inner.Put(key, payload)
	d := time.Since(t)
	c.puts.addDur(d)
	c.busyNs.Add(int64(d))
	c.bytes.Add(int64(len(payload)))
	return err
}

// ---- Go runtime readings ----

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

var runtimeMu sync.Mutex

func readRuntime() (allocs, resident uint64) {
	runtimeMu.Lock()
	defer runtimeMu.Unlock()
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64() - runtimeSamples[2].Value.Uint64()
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	a, _ := readRuntime()
	return a
}

// memPeak samples the memory the Go runtime holds from the OS (mapped and
// not released) every millisecond until stop, and reports the peak. The
// benchmark's resident-memory metrics are this peak.
type memPeak struct {
	peak atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startMemPeak() *memPeak {
	m := &memPeak{done: make(chan struct{})}
	m.sample()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.done:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *memPeak) sample() {
	_, r := readRuntime()
	for {
		p := m.peak.Load()
		if r <= p || m.peak.CompareAndSwap(p, r) {
			return
		}
	}
}

// stop ends sampling and returns the peak in MB.
func (m *memPeak) stop() float64 {
	close(m.done)
	m.wg.Wait()
	m.sample()
	return float64(m.peak.Load()) / 1e6
}

// cpuTime is the CPU time, user plus system, this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcStats is the GC cycle count and total stop-the-world pause.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{ms.NumGC, ms.PauseTotalNs}
}

// since stores the GC cycles and pause time since g in layers.
func (g gcStats) since(layers map[string]float64) {
	now := readGC()
	layers["go.gc_cycles"] = float64(now.cycles - g.cycles)
	layers["go.gc_pause_ms"] = float64(now.pauseNs-g.pauseNs) / 1e6
}

// counters snapshots named obs.Default counters so a phase can report
// their deltas.
type counters map[string]int64

func readCounters(names ...string) counters {
	c := counters{}
	for _, n := range names {
		c[n] = obs.Default.Counter(n).Value()
	}
	return c
}

// delta returns how much counter name grew since c was read.
func (c counters) delta(name string) float64 {
	return float64(obs.Default.Counter(name).Value() - c[name])
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
