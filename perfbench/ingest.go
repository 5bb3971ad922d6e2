package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/dist"
	"dwmaxerr/internal/ingest"
	"dwmaxerr/internal/obs"
	"dwmaxerr/internal/serve"
)

// ingest-live: POST /ingest batches at a fixed value rate beside /point,
// /range and /info reads at a fixed rate, against serve.NewIngest over an
// ingest.Ingestor with BlockBudget 0 and a FileCheckpoint (the dwserve
// -ingest-checkpoint deployment).

const (
	ingestWindow = 1 << 14
	ingestBlock  = 1 << 10
	ingestBudget = 512
	ingestSetups = 120

	// ingestBatch values per POST at ingestPushRate posts per second:
	// 10240 values/s, ten blocks a second.
	ingestBatch    = 64
	ingestPushRate = 160.0
	// ingestReadRate reads per second; even reads are /info (the
	// staleness probe), odd ones alternate /point and /range.
	ingestReadRate = 1000.0
)

// liveIngest is one ingestor with its checkpoint store and HTTP front.
type liveIngest struct {
	ing   *ingest.Ingestor
	ckpt  *timedCheckpoint
	front *httpFront
}

func (l *liveIngest) close() {
	if l.front != nil {
		l.front.close()
	}
	l.ing.Close()
}

// startIngest is the program's set-up: ingest.New over an empty checkpoint
// store, the first window pushed block by block, each block published
// before the next is pushed, then serve.NewIngest and the HTTP front. The
// timed reads need a full window; one block alone sets up in under a
// millisecond, too little to time steadily. Publishing every block in
// turn fixes the work at 16 checkpointed blocks and 16 rebuilds: pushed
// all at once, the publisher coalesces rebuilds in a number that
// follows how fast the checkpoint writes happen to be.
func startIngest(ckpt *timedCheckpoint, values []float64) (*liveIngest, error) {
	ing, err := ingest.New(ingest.Config{Window: ingestWindow, Block: ingestBlock, Budget: ingestBudget, Store: ckpt})
	if err != nil {
		return nil, err
	}
	l := &liveIngest{ing: ing, ckpt: ckpt}
	for i, v := range values[:ingestWindow] {
		if err := ing.Push(v); err != nil {
			l.close()
			return nil, err
		}
		if (i+1)%ingestBlock == 0 {
			ing.Sync()
		}
	}
	if snap := ing.Snapshot(); snap == nil || snap.N != ingestWindow {
		l.close()
		return nil, fmt.Errorf("no full-window snapshot after %d values", ingestWindow)
	}
	srv, err := serve.NewIngest(ing, serve.Limits{})
	if err != nil {
		l.close()
		return nil, err
	}
	if l.front, err = startFront(srv); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// staleness pairs block acknowledgements with the first /info read that
// shows the block covered.
type staleness struct {
	mu      sync.Mutex
	acked   map[int64]time.Time // block -> ack of the push that completed it
	samples samples             // ms
}

func (s *staleness) ack(fromPos, toPos int64, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for b := fromPos / ingestBlock; (b+1)*ingestBlock <= toPos; b++ {
		if (b+1)*ingestBlock > fromPos {
			s.acked[b] = at
		}
	}
}

// observe records a read sent at sent and answered at done that saw the
// window end at coveredEnd.
func (s *staleness) observe(sent, done time.Time, coveredEnd int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for b, at := range s.acked {
		if (b+1)*ingestBlock <= coveredEnd && !at.After(sent) {
			s.samples.addDur(done.Sub(at))
			delete(s.acked, b)
		}
	}
}

func runIngest(o *opts) (*report, error) {
	total := time.Duration(o.seconds * float64(time.Second))
	nPush := int(ingestPushRate*o.seconds) + 1
	values := dataset.NYCTLike{}.Generate(ingestWindow+nPush*ingestBatch, o.seed)

	var setups, setupIO []float64
	var live *liveIngest
	for i := 0; i < ingestSetups; i++ {
		if live != nil {
			live.close()
		}
		fc, err := dist.NewFileCheckpoint(filepath.Join(o.dir, fmt.Sprintf("ckpt%d", i)))
		if err != nil {
			return nil, err
		}
		runtime.GC() // start each set-up from the same heap state
		t := time.Now()
		if live, err = startIngest(&timedCheckpoint{inner: fc}, values); err != nil {
			return nil, err
		}
		wall := time.Since(t)
		io := time.Duration(live.ckpt.busyNs.Load())
		setups = append(setups, (wall - io).Seconds())
		setupIO = append(setupIO, io.Seconds())
	}
	defer live.close()

	r := newReport()
	client := newClient(genWorkers())
	defer client.CloseIdleConnections()
	st := &staleness{acked: map[int64]time.Time{}}
	var mu sync.Mutex
	var pos int64 = ingestWindow
	pushOp := func(tracer *obs.Tracer, base int) func(int) bool {
		return func(k int) bool {
			k += base
			batch := values[ingestWindow+k*ingestBatch : ingestWindow+(k+1)*ingestBatch]
			body, _ := json.Marshal(serve.IngestRequest{Values: batch}) // []float64 of finite values
			span := tracer.Start("bench:push")
			span.SetInt("push_id", int64(k))
			resp, err := client.Post(live.front.url+"/ingest", "application/json", bytes.NewReader(body))
			span.End()
			if err != nil {
				return false
			}
			var a serve.IngestAnswer
			derr := json.NewDecoder(resp.Body).Decode(&a)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || derr != nil || a.Accepted != len(batch) {
				mu.Lock()
				r.wrong = append(r.wrong, fmt.Sprintf("push %d: status %d, accepted %d of %d (%v)", k, resp.StatusCode, a.Accepted, len(batch), derr))
				mu.Unlock()
				return false
			}
			from := pos
			pos += int64(len(batch))
			st.ack(from, pos, time.Now())
			return true
		}
	}
	readOp := func(tracer *obs.Tracer) func(int) bool {
		return func(k int) bool {
			span := tracer.Start(spanQuery)
			span.SetInt("query_id", int64(k))
			defer span.End()
			msg, ok := ingestRead(client, live, st, o.seed, k)
			if msg != "" {
				mu.Lock()
				r.wrong = append(r.wrong, msg)
				mu.Unlock()
			}
			return ok
		}
	}

	var lag *publishLag
	if o.traced {
		lag = startPublishLag(live.ing)
	}
	puts0, bytes0 := live.ckpt.puts.len(), live.ckpt.bytes.Load()
	blocks0, epoch0 := live.ing.Blocks(), live.ing.Snapshot().Epoch
	gc0 := readGC()
	mem := startMemPeak()
	cpu0 := cpuTime()
	phase := func(dur time.Duration, pushBase int, tracer *obs.Tracer) (push, read *loadRun) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); push = openLoop(ingestPushRate, dur, 1, pushOp(tracer, pushBase)) }()
		go func() { defer wg.Done(); read = openLoop(ingestReadRate, dur, 1, readOp(tracer)) }()
		wg.Wait()
		return push, read
	}
	untracedDur := total
	if o.traced {
		untracedDur = total / 2
	}
	push, read := phase(untracedDur, 0, nil)
	cpuPerRead := ms(cpuTime()-cpu0) / float64(read.sent)
	var tracedRead *loadRun
	if o.traced {
		bench := obs.NewTracer()
		var tracedPush *loadRun
		tracedPush, tracedRead = phase(total-untracedDur, push.sent, bench)
		for _, lr := range []*loadRun{tracedPush, tracedRead} {
			r.attempted += int64(lr.sent)
			r.failed += lr.failed.Load()
		}
		if err := writeTrace(bench, o.traces, fmt.Sprintf("ingest-live-seed%d.json", o.seed)); err != nil {
			return nil, err
		}
	}
	peak := mem.stop()
	live.ing.Sync()
	for _, lr := range []*loadRun{push, read} {
		r.attempted += int64(lr.sent)
		r.failed += lr.failed.Load()
	}

	rl, pl, sl := read.lat.sorted(), push.lat.sorted(), st.samples.sorted()
	r.gated["setup_s"] = medianOf(setups)
	r.gated["op_p50_ms"] = median(rl)
	r.gated["peak_rss_mb"] = peak
	r.fig("setup_s", "s", medianOf(setups), fmt.Sprintf("median of %d ingestor starts, less setup_checkpoint_s", len(setups)))
	r.fig("setup_checkpoint_s", "s", medianOf(setupIO), "median time of a start inside the checkpoint store's Get and Put (host file system)")
	r.fig("query_cpu_ms", "ms", cpuPerRead, "CPU of the whole process (pushes, publisher, reads, checker) per read at the fixed rates")
	r.fig("peak_rss_mb", "MB", peak, "whole benchmark process, timed phase")
	tailFig(r, "query", rl, fmt.Sprintf("%d reads at %g/s", len(rl), ingestReadRate))
	tailFig(r, "push", pl, fmt.Sprintf("%d pushes of %d values at %g/s", len(pl), ingestBatch, ingestPushRate))
	tailFig(r, "staleness", sl, fmt.Sprintf("%d blocks", len(sl)))

	if o.traced {
		l := r.layers
		gc0.since(l)
		lags := lag.stop()
		l["ingest.publish_lag_ms_p50"] = median(lags)
		l["ingest.publish_lag_ms_p99"], _, _ = tail(lags, 0.99)
		l["ingest.epochs_per_block"] = ratio(float64(live.ing.Snapshot().Epoch-epoch0), float64(live.ing.Blocks()-blocks0))
		puts := live.ckpt.puts.sortedFrom(puts0)
		l["ingest.checkpoint_put_ms_p50"] = median(puts)
		l["ingest.checkpoint_put_ms_p99"], _, _ = tail(puts, 0.99)
		l["ingest.checkpoint_mb"] = float64(live.ckpt.bytes.Load()-bytes0) / 1e6
		l["gen.lag_ms_p99"] = max(push.lagTail(), read.lagTail())
		l["trace.overhead_ratio"] = ratio(median(tracedRead.lat.sorted()), median(rl))
		ev := live.ing.Snapshot()
		var point, rng samples
		for k := 0; k < read.sent; k++ {
			q := stream(o.seed, k+1)
			i := q.IntN(ev.N)
			t := time.Now()
			if k%4 == 1 {
				ev.Ev.Point(i)
				point.add(float64(time.Since(t)) / 1e3)
			} else if k%4 == 3 {
				ev.Ev.RangeSum(i, min(ev.N-1, i+q.IntN(ev.N/4)))
				rng.add(float64(time.Since(t)) / 1e3)
			}
		}
		l["synopsis.point_us_p50"] = median(point.sorted())
		l["synopsis.range_us_p50"] = median(rng.sorted())
	}
	return r, nil
}

// ingestRead sends read k and checks it against the snapshot it must
// have been answered from. It returns a failed check's message and
// whether the read succeeded.
func ingestRead(client *http.Client, live *liveIngest, st *staleness, seed int64, k int) (string, bool) {
	before := live.ing.Snapshot()
	q := stream(seed, k+1)
	i := q.IntN(before.N)
	j := min(before.N-1, i+q.IntN(before.N/4))
	var path string
	switch k % 4 {
	case 0, 2:
		path = "/info"
	case 1:
		path = fmt.Sprintf("/point?i=%d", i)
	default:
		path = fmt.Sprintf("/range?lo=%d&hi=%d", i, j)
	}
	sent := time.Now()
	code, body, err := get(client, live.front.url+path)
	done := time.Now()
	after := live.ing.Snapshot()
	if err != nil || code != http.StatusOK {
		return "", false
	}
	var msg string
	switch k % 4 {
	case 0, 2:
		var info serve.Info
		if err := json.Unmarshal(body, &info); err != nil {
			return fmt.Sprintf("info: %v", err), false
		}
		st.observe(sent, done, info.WindowStart+int64(info.N))
		if before.Epoch == after.Epoch && (info.Epoch != before.Epoch || info.WindowStart != before.Start) {
			msg = fmt.Sprintf("info: epoch %d start %d, snapshot has epoch %d start %d", info.Epoch, info.WindowStart, before.Epoch, before.Start)
		}
	case 1:
		var a serve.PointAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Sprintf("point: %v", err), false
		}
		if want := before.Ev.Point(i); before.Epoch == after.Epoch && a.Approx != want {
			msg = fmt.Sprintf("point %d at epoch %d: got %v, snapshot gives %v", i, before.Epoch, a.Approx, want)
		}
	default:
		var a serve.RangeAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Sprintf("range: %v", err), false
		}
		if want := before.Ev.RangeSum(i, j); before.Epoch == after.Epoch && a.Sum != want {
			msg = fmt.Sprintf("range [%d,%d] at epoch %d: got %v, snapshot gives %v", i, j, before.Epoch, a.Sum, want)
		}
	}
	return msg, msg == ""
}

// publishLag polls the ingestor directly: for each completed block, the
// time from Blocks() first counting it to a snapshot first covering it.
type publishLag struct {
	ing  *ingest.Ingestor
	lags samples // ms
	done chan struct{}
	wg   sync.WaitGroup
}

func startPublishLag(ing *ingest.Ingestor) *publishLag {
	p := &publishLag{ing: ing, done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		completed := map[int64]time.Time{}
		seen := ing.Blocks()
		for {
			select {
			case <-p.done:
				return
			default:
			}
			now := time.Now()
			for b := ing.Blocks(); seen < b; seen++ {
				completed[seen] = now
			}
			if snap := ing.Snapshot(); snap != nil {
				end := snap.Start + int64(snap.N)
				for b, at := range completed {
					if (b+1)*ingestBlock <= end {
						p.lags.addDur(now.Sub(at))
						delete(completed, b)
					}
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return p
}

func (p *publishLag) stop() []float64 {
	close(p.done)
	p.wg.Wait()
	return p.lags.sorted()
}
