// Package mr is a from-scratch MapReduce-style execution substrate that
// stands in for the Hadoop cluster of the paper's evaluation (Section 6).
// It provides the semantics the distributed thresholding algorithms need —
// input splits, map tasks, a sorting/partitioning shuffle, reduce tasks,
// combiners, configurable map/reduce slot counts, task retry with failure
// injection — in two engines:
//
//   - Local: an in-process engine executing tasks on a goroutine pool. It
//     records per-task durations and shuffle volumes, and can report the
//     simulated makespan for any slot count, which is how the scalability
//     series of Figures 5c/5d (runtime vs. number of parallel tasks) are
//     regenerated on a single machine.
//   - Cluster: a TCP coordinator/worker runtime executing the same jobs
//     across processes over a compact length-prefixed binary wire format
//     (wire.go; gob only for the per-connection hello). Workers heartbeat the
//     coordinator; a monitor declares silent workers dead mid-task and
//     reassigns their work, task replies carry per-attempt user-counter
//     snapshots and durations, attempts are numbered identically to the
//     local engine, speculative backup attempts can race stragglers, and
//     Close drains workers with a shutdown broadcast. Task output is
//     committed at most once (first successful attempt wins).
//
// Keys and values are byte slices; encode/decode helpers live in codec.go.
package mr

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"dwmaxerr/internal/obs"
)

// Emit receives one intermediate or output key/value pair. Engine emit
// implementations copy key and value before returning, so callers may
// reuse one scratch buffer across emits (see the Append* helpers in
// codec.go) instead of allocating per record.
type Emit func(key, value []byte) error

// TaskContext identifies a running task to map/reduce functions.
type TaskContext struct {
	TaskID  int // split index for maps, partition index for reduces
	Attempt int // 1-based attempt number
	// Counters receives user counter increments; only the committed
	// attempt's counters reach the job metrics.
	Counters *Counters
}

// MapFunc processes one input split.
type MapFunc func(ctx TaskContext, split Split, emit Emit) error

// ReduceFunc processes one key group. values preserves shuffle order
// (sorted by key; ties in arrival order). The values slice itself is only
// valid during the call — the engine reuses it for the next group — but
// the byte slices it holds stay valid for the task's lifetime.
type ReduceFunc func(ctx TaskContext, key []byte, values [][]byte, emit Emit) error

// Split is one unit of map input. Payload is opaque to the engine; local
// jobs typically store an index or range, cluster jobs a self-describing
// gob blob (file path + offsets).
type Split struct {
	ID      int
	Payload []byte
}

// Job describes one MapReduce execution.
type Job struct {
	Name string
	// Params is the blob the factory registered under Name rebuilds this
	// job from (see RegisterJob). Only the Coordinator reads it: it ships
	// Name and Params to workers, which cannot receive Go closures. Nil
	// for jobs that run only on in-process engines.
	Params   []byte
	Splits   []Split
	Map      MapFunc
	Reduce   ReduceFunc // nil: identity (map output passed through)
	Combine  ReduceFunc // optional map-side combiner
	Reducers int        // number of reduce partitions; 0 means 1
	// Partition routes a key to a reduce partition; nil uses FNV hashing.
	Partition func(key []byte, reducers int) int
	// Compare orders keys within a partition; nil uses bytes.Compare.
	Compare func(a, b []byte) int
}

func (j *Job) reducers() int {
	if j.Reducers <= 0 {
		return 1
	}
	return j.Reducers
}

func (j *Job) partition(key []byte) int {
	n := j.reducers()
	if j.Partition != nil {
		p := j.Partition(key, n)
		if p < 0 || p >= n {
			return 0
		}
		return p
	}
	h := fnv.New32a()
	h.Write(key)
	// Reduce in uint32 space: int(h.Sum32()) is negative for hashes above
	// MaxInt32 on 32-bit platforms, and a negative index would panic.
	return int(h.Sum32() % uint32(n))
}

func (j *Job) compare(a, b []byte) int {
	if j.Compare != nil {
		return j.Compare(a, b)
	}
	return bytes.Compare(a, b)
}

func (j *Job) validate() error {
	if j.Map == nil {
		return errors.New("mr: job has no map function")
	}
	if len(j.Splits) == 0 {
		return errors.New("mr: job has no input splits")
	}
	return nil
}

// Pair is one output record.
type Pair struct {
	Key, Value []byte
}

// TaskStat records one task attempt for metrics and makespan simulation.
type TaskStat struct {
	TaskID   int
	Attempt  int
	Duration time.Duration
	Failed   bool
}

// Metrics aggregates what one job execution did. ShuffleBytes counts the
// map-output key+value bytes crossing the shuffle — the quantity bounded by
// Equation 6 — and OutputBytes the reduce-output volume.
//
// Synchronization contract: task attempts complete concurrently, but no
// engine writes a Metrics field from a task goroutine. The Local engine
// appends TaskStats and merges counters under runTasks' mutex and fills
// the aggregate fields on the single driver goroutine between phases; the
// Coordinator collects per-attempt wire replies through channels and folds
// them into Metrics in one collection loop per phase on the Run goroutine.
// Consequently Metrics — including Makespan, which walks MapStats and
// ReduceStats — is safe to read without locking once Run returns, and
// never safe to read while Run is in flight. tcp_fault_test.go pins this
// down under -race with concurrent reduce completions.
type Metrics struct {
	Job            string
	MapTasks       int
	ReduceTasks    int
	MapRetries     int
	ReduceRetries  int
	ShuffleRecords int64
	ShuffleBytes   int64
	OutputRecords  int64
	OutputBytes    int64
	SpilledBytes   int64
	// UserCounters aggregates the counters bumped by committed task
	// attempts (nil when none were used).
	UserCounters map[string]int64
	MapStats     []TaskStat
	ReduceStats  []TaskStat
	WallTime     time.Duration
}

// countRetries counts committed attempts beyond the first — the
// engine-agnostic retry accounting shared by Local and Coordinator.
func countRetries(stats []TaskStat) int {
	n := 0
	for _, st := range stats {
		if st.Attempt > 1 && !st.Failed {
			n++
		}
	}
	return n
}

// Makespan simulates executing the recorded map tasks on mapSlots parallel
// slots and then the reduce tasks on reduceSlots slots (LPT list
// scheduling, mirroring Hadoop's slot model), returning the simulated
// completion time. It is how "runtime vs. number of parallel tasks" series
// are produced deterministically on one machine.
func (m *Metrics) Makespan(mapSlots, reduceSlots int) time.Duration {
	return schedule(m.MapStats, mapSlots) + schedule(m.ReduceStats, reduceSlots)
}

func schedule(stats []TaskStat, slots int) time.Duration {
	if slots < 1 {
		slots = 1
	}
	if len(stats) == 0 {
		return 0
	}
	// FIFO list scheduling in task order (Hadoop default scheduler).
	finish := make([]time.Duration, slots)
	for _, s := range stats {
		// Assign to the earliest-free slot.
		minI := 0
		for i := 1; i < slots; i++ {
			if finish[i] < finish[minI] {
				minI = i
			}
		}
		finish[minI] += s.Duration
	}
	var max time.Duration
	for _, f := range finish {
		if f > max {
			max = f
		}
	}
	return max
}

// Result is one job's output: pairs grouped per reduce partition, in key
// order within each partition.
type Result struct {
	Partitions [][]Pair
	Metrics    Metrics
}

// AllPairs flattens the partitions in order.
func (r *Result) AllPairs() []Pair {
	var out []Pair
	for _, p := range r.Partitions {
		out = append(out, p...)
	}
	return out
}

// JobOptions carries per-run observability settings. The zero value is
// fully disabled and adds no overhead.
type JobOptions struct {
	// Trace, when non-nil, becomes the parent of a "job:<name>" span the
	// engine records phases and task attempts under. Nil disables tracing
	// (span methods on nil receivers no-op).
	Trace *obs.Span
}

// Engine executes jobs.
type Engine interface {
	Run(job *Job) (*Result, error)
}

// TracingEngine is implemented by engines that accept per-run JobOptions
// (both Local and Coordinator do). Callers holding a plain Engine can
// type-assert to plug a trace in without changing call signatures.
type TracingEngine interface {
	Engine
	RunWith(job *Job, opts JobOptions) (*Result, error)
}

// taskError wraps a task failure with its origin.
type taskError struct {
	kind string
	id   int
	err  error
}

func (e *taskError) Error() string {
	return fmt.Sprintf("mr: %s task %d: %v", e.kind, e.id, e.err)
}

func (e *taskError) Unwrap() error { return e.err }
