// Command perfbench is the repository benchmark: it drives the program
// only through its exported Go API, checks every output, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
//
//	bash perfbench/run.sh --workload build-dih --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":7,"failed":0,"metrics":{"setup_s":{"value":0.01,"unit":"s"},...}}
//
// Everything above it is a human-readable table of every metric the
// workload defines. README.md in this directory documents the workloads
// and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec names one metric of BENCHMARK.json; the lists below must match it
// (TestSpecsMatchBenchmarkJSON).
type spec struct{ name, unit string }

// endToEnd is what every workload prints with --trace 0. Each applies to
// every workload: the "op" is one build for build-*, one read for the
// serving workloads.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what every workload prints with --trace 1. A layer the
// workload does not touch reads 0.
var perLayer = []spec{
	{"mr.jobs", "count"},
	{"mr.run_s", "s"},
	{"mr.user_fn_s", "s"},
	{"mr.emit_s", "s"},
	{"mr.shuffle_s", "s"},
	{"mr.slot_busy_ratio", "ratio"},
	{"mr.alloc_mb", "MB"},
	{"mr.shuffle_records", "count"},
	{"mr.arena_reuse_ratio", "ratio"},
	{"mr.radix_sort_share", "ratio"},
	{"mr.retries", "count"},
	{"dist.driver_self_s", "s"},
	{"dist.probes", "count"},
	{"dist.bounds_s", "s"},
	{"dist.layer_up_s", "s"},
	{"dist.layer_down_s", "s"},
	{"dist.search_s", "s"},
	{"dist.layer_row_mb", "MB"},
	{"dist.greedy_runs_per_candidate", "ratio"},
	{"dist.work_inflation", "ratio"},
	{"dp.ref_s", "s"},
	{"greedy.ref_s", "s"},
	{"synopsis.point_us_p50", "us"},
	{"synopsis.range_us_p50", "us"},
	{"synopsis.decode_us_p50", "us"},
	{"serve.direct_ms_p50", "ms"},
	{"serve.direct_ms_p99", "ms"},
	{"serve.hop_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.stray_fills", "count"},
	{"serve.store_loads", "count"},
	{"serve.store_load_ms_p50", "ms"},
	{"serve.store_load_ms_p99", "ms"},
	{"serve.failed_forwards", "count"},
	{"serve.alloc_kb_per_query", "KB"},
	{"ingest.publish_lag_ms_p50", "ms"},
	{"ingest.publish_lag_ms_p99", "ms"},
	{"ingest.epochs_per_block", "ratio"},
	{"ingest.checkpoint_put_ms_p50", "ms"},
	{"ingest.checkpoint_put_ms_p99", "ms"},
	{"ingest.checkpoint_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"gen.lag_ms_p99", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.accounted_ratio", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*opts) (*report, error){
	"build-dih":   func(o *opts) (*report, error) { return runBuilds(o, algoDIH) },
	"build-dga":   func(o *opts) (*report, error) { return runBuilds(o, algoDGA) },
	"serve-zipf":  runServe,
	"ingest-live": runIngest,
}

// stream is the k-th random stream of the seed. Every input is drawn
// from one, so the same seed gives the same inputs.
func stream(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(k)))
}

// opts are the run's arguments.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	dir      string // private scratch directory of this run
	traces   string // where traced runs write their span files
}

// figure is one metric of the human-readable table. A figure with ok
// false could not be measured on this run and prints as n/a.
type figure struct {
	name, unit string
	value      float64
	ok         bool
	note       string
}

// report is what one workload run measured.
type report struct {
	attempted, failed int64
	wrong             []string // failed output checks (a subset of failed) and trace checks
	crashes           map[string]int
	notes             []string
	figures           []figure           // the workload's end-to-end metrics
	gated             map[string]float64 // endToEnd values
	layers            map[string]float64 // perLayer values (traced runs)
}

func newReport() *report {
	return &report{crashes: map[string]int{}, gated: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) fig(name, unit string, v float64, note string) {
	r.figures = append(r.figures, figure{name: name, unit: unit, value: v, ok: true, note: note})
}

func (r *report) na(name, unit, note string) {
	r.figures = append(r.figures, figure{name: name, unit: unit, note: note})
}

// tailFig reports a latency distribution's median and p99 (or the
// highest percentile with enough samples beyond it) as <kind>_p50_ms and
// <kind>_p99_ms.
func tailFig(r *report, kind string, sorted []float64, note string) {
	if len(sorted) == 0 {
		r.na(kind+"_p50_ms", "ms", "no samples")
		r.na(kind+"_p99_ms", "ms", "no samples")
		return
	}
	r.fig(kind+"_p50_ms", "ms", median(sorted), note)
	if v, q, ok := tail(sorted, 0.99); ok {
		r.fig(kind+"_p99_ms", "ms", v, fmt.Sprintf("%s; reported at p%g", note, 100*q))
	} else {
		r.na(kind+"_p99_ms", "ms", note+"; too few samples for a tail")
	}
}

func (r *report) failRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "workload: build-dih, build-dga, serve-zipf, ingest-live or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs traced and prints per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for scratch files and traces")
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		// A build child started by runBuilds; see childBuild.
		if err := childBuild(os.Args[2], os.Args[3:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	flag.Parse()
	o.traced = *trace == 1
	if err := run(&o, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o *opts, work string) error {
	names := []string{o.workload}
	if o.workload == "all" {
		names = []string{"build-dih", "build-dga", "serve-zipf", "ingest-live"}
	}
	for _, name := range names {
		if workloads[name] == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.dir = dir
	o.traces = filepath.Join(work, "traces")
	for _, name := range names {
		w := *o
		w.workload = name
		rep, err := workloads[name](&w)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printReport(os.Stdout, &w, rep)
	}
	return nil
}

// printReport writes the human-readable table, then the result object as
// the last line.
func printReport(f *os.File, o *opts, r *report) {
	mode := "untraced"
	if o.traced {
		mode = "traced"
	}
	fmt.Fprintf(f, "# %s seed=%d seconds=%g %s GOMAXPROCS=%d %s\n", o.workload, o.seed, o.seconds, mode, runtime.GOMAXPROCS(0), time.Now().UTC().Format(time.RFC3339))
	fmt.Fprintf(f, "%-34s %14s  %-6s %s\n", "metric", "value", "unit", "note")
	row := func(name, unit, val, note string) {
		fmt.Fprintf(f, "%-34s %14s  %-6s %s\n", name, val, unit, note)
	}
	row("fail_ratio", "ratio", fmt.Sprintf("%.4g", r.failRatio()), fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted))
	for _, g := range r.figures {
		v := "n/a"
		if g.ok {
			v = fmt.Sprintf("%.6g", g.value)
		}
		row(g.name, g.unit, v, g.note)
	}
	if o.traced {
		for _, s := range perLayer {
			row(s.name, s.unit, fmt.Sprintf("%.6g", r.layers[s.name]), "")
		}
	}
	crashes := make([]string, 0, len(r.crashes))
	for c := range r.crashes {
		crashes = append(crashes, c)
	}
	sort.Strings(crashes)
	for _, c := range crashes {
		fmt.Fprintf(f, "crash x%d: %s\n", r.crashes[c], c)
	}
	for _, n := range r.notes {
		fmt.Fprintf(f, "note: %s\n", n)
	}
	for i, w := range r.wrong {
		if i == 5 {
			fmt.Fprintf(f, "... %d more failed checks\n", len(r.wrong)-i)
			break
		}
		fmt.Fprintf(f, "check failed: %s\n", w)
	}
	list, vals := endToEnd, r.gated
	if o.traced {
		list, vals = perLayer, r.layers
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.wrong) == 0, r.attempted, r.failed, map[string]metric{}}
	var missing []string
	for _, s := range list {
		v, ok := vals[s.name]
		if !ok || !finite(v) {
			if !o.traced {
				missing = append(missing, s.name)
				continue
			}
			v = 0 // the layer did no work on this workload
		}
		out.Metrics[s.name] = metric{v, s.unit}
	}
	if len(missing) > 0 {
		fmt.Fprintf(f, "not measurable on this run: %s\n", strings.Join(missing, ", "))
	}
	b, _ := json.Marshal(out) // plain structs and finite floats: cannot fail
	fmt.Fprintln(f, string(b))
}
