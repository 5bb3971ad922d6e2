package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/dist"
	"dwmaxerr/internal/dp"
	"dwmaxerr/internal/greedy"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
	"dwmaxerr/internal/synopsis"
)

// The two build workloads run each build in a child process of this
// binary, so a Go fatal error in the program (which no recover can catch)
// costs one build, not the run.

const (
	algoDIH = "dih" // DIndirectHaar, Fig. 5d shape
	algoDGA = "dga" // DGreedyAbs, Fig. 5c shape

	buildN     = 1 << 16
	buildB     = buildN / 8
	buildS     = buildN / 16
	buildDelta = 50.0

	// dgaTolerance is DGreedyAbs's documented bucket-rounding tolerance
	// against the centralised GreedyAbs (internal/dist/dist_test.go).
	dgaTolerance = 1.05

	// buildInputs distinct inputs per run: the binary search of
	// DIndirectHaar takes 2 to 7 probes depending on the data, so one input
	// per run would make build time a property of the seed.
	buildInputs  = 8
	buildTimeout = 90 * time.Second
)

// buildData generates the workload's input from the seed.
func buildData(algo string, seed int64) []float64 {
	if algo == algoDIH {
		return dataset.Uniform{Max: 1000}.Generate(buildN, seed)
	}
	return dataset.NYCTLike{}.Generate(buildN, seed)
}

// childReady is the child's first line, printed when the program starts
// its first MR job: SetupNs is the program's own set-up, from the build
// call (engine construction included) to that first Engine.Run.
type childReady struct {
	SetupNs int64 `json:"setup_ns"`
}

// childResult is the child's last line: what one build did.
type childResult struct {
	BuildNs      int64              `json:"build_ns"`
	CPUNs        int64              `json:"cpu_ns"`
	Terms        int                `json:"terms"`
	ReportedErr  float64            `json:"reported_err"`
	MaxAbs       float64            `json:"max_abs"` // synopsis.Evaluate
	ShuffleBytes int64              `json:"shuffle_bytes"`
	PeakMB       float64            `json:"peak_mb"`
	Layers       map[string]float64 `json:"layers,omitempty"`
}

// buildOutcome is one child run as the parent saw it.
type buildOutcome struct {
	ready  *childReady
	result *childResult
	crash  string // first line of the fatal message; "" when it exited 0
}

// buildInput is one generated input with its centralised reference.
type buildInput struct {
	path   string
	refMax float64 // the checker's expected max_abs
	refS   float64 // single-goroutine reference solve time
}

// makeInputs writes the run's inputs and solves each centrally with the
// reference algorithm, one goroutine per solve, genWorkers at a time.
func makeInputs(o *opts, algo string) ([]buildInput, error) {
	ins := make([]buildInput, buildInputs)
	errs := make([]error, buildInputs)
	sem := make(chan struct{}, genWorkers())
	var wg sync.WaitGroup
	for j := range ins {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			ins[j], errs[j] = makeInput(o, algo, j)
		}()
	}
	wg.Wait()
	return ins, errors.Join(errs...)
}

func makeInput(o *opts, algo string, j int) (buildInput, error) {
	data := buildData(algo, o.seed*buildInputs+int64(j))
	in := buildInput{path: filepath.Join(o.dir, fmt.Sprintf("data%d.bin", j))}
	if err := dataset.SaveBinary(in.path, data); err != nil {
		return in, err
	}
	t := time.Now()
	if algo == algoDIH {
		res, err := dp.IndirectHaar(data, buildB, buildDelta)
		if err != nil {
			return in, fmt.Errorf("reference IndirectHaar: %w", err)
		}
		in.refMax = res.MaxAbs
	} else {
		_, e, err := greedy.SynopsisAbs(data, buildB)
		if err != nil {
			return in, fmt.Errorf("reference GreedyAbs: %w", err)
		}
		in.refMax = e
	}
	in.refS = time.Since(t).Seconds()
	return in, nil
}

func runBuilds(o *opts, algo string) (*report, error) {
	ins, err := makeInputs(o, algo)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r := newReport()
	var setup, wall, cpu, overhead, peak, errRatio, shuffle, refS []float64
	var pairWall float64 // the untraced build of the current traced pair
	layerSamples := map[string][]float64{}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	// Untraced runs cycle through the inputs; traced runs build each input
	// untraced then traced, so the overhead compares like with like.
	need, perInput := buildInputs, 1
	if o.traced {
		need, perInput = 2*buildInputs, 2
	}
	for i := 0; i < need || time.Now().Before(deadline); i++ {
		in := ins[(i/perInput)%len(ins)]
		traced := o.traced && i%2 == 1
		if !traced {
			pairWall = 0
		}
		out, err := spawnBuild(self, algo, in.path, traced, filepath.Join(o.traces, fmt.Sprintf("build-%s-seed%d-%d.json", algo, o.seed, i)))
		if err != nil {
			return nil, err
		}
		r.attempted++
		if out.ready != nil {
			setup = append(setup, float64(out.ready.SetupNs)/1e9)
		}
		if out.crash != "" {
			r.failed++
			r.crashes[out.crash]++
			continue
		}
		res := out.result
		if msg := checkBuild(algo, res, in.refMax); msg != "" {
			r.failed++
			r.wrong = append(r.wrong, fmt.Sprintf("build %d: %s", i, msg))
			continue
		}
		if traced {
			if pairWall > 0 {
				overhead = append(overhead, float64(res.BuildNs)/1e9/pairWall)
			}
			for k, v := range res.Layers {
				layerSamples[k] = append(layerSamples[k], v)
			}
			layerSamples["dist.work_inflation"] = append(layerSamples["dist.work_inflation"], res.Layers["mr.user_fn_s"]/in.refS)
			continue
		}
		wall = append(wall, float64(res.BuildNs)/1e9)
		pairWall = wall[len(wall)-1]
		cpu = append(cpu, float64(res.CPUNs)/1e9)
		peak = append(peak, res.PeakMB)
		errRatio = append(errRatio, res.MaxAbs/in.refMax)
		shuffle = append(shuffle, float64(res.ShuffleBytes)/1e6)
	}
	for _, in := range ins {
		refS = append(refS, in.refS)
	}

	n := fmt.Sprintf("median of %d builds", len(wall))
	if len(setup) > 0 {
		r.gated["setup_s"] = medianOf(setup)
		r.fig("setup_s", "s", medianOf(setup), fmt.Sprintf("median of %d builds, build call to first Engine.Run", len(setup)))
	} else {
		r.na("setup_s", "s", "no build process got ready")
	}
	if len(wall) > 0 {
		r.gated["op_p50_ms"] = medianOf(wall) * 1e3
		r.gated["peak_rss_mb"] = medianOf(peak)
		r.fig("peak_rss_mb", "MB", medianOf(peak), n)
		r.fig("build_s", "s", medianOf(wall), n)
		r.fig("build_cpu_s", "s", medianOf(cpu), n+"; user+system CPU of the build process during the build")
		r.fig("max_err_ratio", "ratio", medianOf(errRatio), fmt.Sprintf("%s; min %g max %g", n, slices.Min(errRatio), slices.Max(errRatio)))
		r.fig("shuffle_mb", "MB", medianOf(shuffle), n)
	} else {
		for _, g := range []spec{{"peak_rss_mb", "MB"}, {"build_s", "s"}, {"build_cpu_s", "s"}, {"max_err_ratio", "ratio"}, {"shuffle_mb", "MB"}} {
			r.na(g.name, g.unit, "no build completed")
		}
	}
	if o.traced {
		for k, v := range layerSamples {
			r.layers[k] = medianOf(v)
		}
		refName := "dp.ref_s"
		if algo == algoDGA {
			refName = "greedy.ref_s"
		}
		r.layers[refName] = medianOf(refS)
		if len(overhead) > 0 {
			r.layers["trace.overhead_ratio"] = medianOf(overhead)
		}
		if acc, ok := r.layers["trace.accounted_ratio"]; ok && math.Abs(acc-1) > accountedShare {
			r.wrong = append(r.wrong, fmt.Sprintf("trace: the named layers account for %.3f of build wall time, outside 1 +/- %g", acc, accountedShare))
		}
	}
	return r, nil
}

// checkBuild returns why a completed build's output is wrong, or "".
func checkBuild(algo string, res *childResult, refMax float64) string {
	switch {
	case res.Terms > buildB:
		return fmt.Sprintf("%d terms exceed the budget %d", res.Terms, buildB)
	case res.ReportedErr != res.MaxAbs:
		return fmt.Sprintf("reported max error %v, synopsis.Evaluate gives %v", res.ReportedErr, res.MaxAbs)
	case algo == algoDIH && res.MaxAbs != refMax:
		return fmt.Sprintf("max_abs %v differs from IndirectHaar's %v", res.MaxAbs, refMax)
	case algo == algoDGA && res.MaxAbs > refMax*dgaTolerance+1e-9:
		return fmt.Sprintf("max_abs %v exceeds %g x GreedyAbs's %v", res.MaxAbs, dgaTolerance, refMax)
	}
	return ""
}

// spawnBuild runs one build in a child process. An error means the
// benchmark itself failed; a crash of the program is an outcome.
func spawnBuild(self, algo, path string, traced bool, tracePath string) (buildOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), buildTimeout)
	defer cancel()
	args := []string{"-child", algo, "-data", path}
	if traced {
		args = append(args, "-trace-out", tracePath)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	var out buildOutcome
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) > 0 && lines[0] != "" {
		var rd childReady
		if json.Unmarshal([]byte(lines[0]), &rd) == nil {
			out.ready = &rd
		}
	}
	var exitErr *exec.ExitError
	switch {
	case runErr == nil:
		var res childResult
		if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
			return out, fmt.Errorf("build child printed no result: %q", stdout.String())
		}
		out.result = &res
	case ctx.Err() != nil:
		out.crash = fmt.Sprintf("build exceeded %v", buildTimeout)
	case errors.As(runErr, &exitErr):
		out.crash = fatalLine(stderr.String())
		if out.crash == "" {
			out.crash = fmt.Sprintf("build exited with %v", runErr)
		}
	default:
		return out, fmt.Errorf("start build child: %w", runErr)
	}
	return out, nil
}

// fatalLine returns the first line of a Go fatal error or panic in a
// child's standard error, else its first non-empty line.
func fatalLine(stderr string) string {
	first := ""
	sc := bufio.NewScanner(strings.NewReader(stderr))
	for sc.Scan() {
		l := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(l, "fatal error:") || strings.HasPrefix(l, "panic:") {
			return l
		}
		if first == "" {
			first = l
		}
	}
	return first
}

// childBuild is the child side: one build on the input file, checked
// against synopsis.Evaluate, reported as JSON lines on standard output.
func childBuild(algo string, args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	path := fs.String("data", "", "input file")
	traceOut := fs.String("trace-out", "", "trace this build and write its spans here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := dataset.LoadBinary(*path)
	if err != nil {
		return err
	}
	build := dist.DGreedyAbs
	if algo == algoDIH {
		build = dist.DIndirectHaar
	} else if algo != algoDGA {
		return fmt.Errorf("unknown build %q", algo)
	}
	var tracer *obs.Tracer
	var root *obs.Span
	if *traceOut != "" {
		tracer = obs.NewTracer()
		root = tracer.Start(spanBuild)
	}

	before := readCounters(buildCounters...)
	rowBytes0 := obs.Default.Histogram("dist_layer_row_bytes").Sum()
	gc0 := readGC()
	mem := startMemPeak()
	cpu0 := cpuTime()
	t := time.Now()
	var inner mr.TracingEngine = &mr.Local{}
	var me *meteredEngine
	if tracer != nil {
		me = &meteredEngine{inner: inner}
		inner = me
	}
	cfg := dist.Config{Engine: &firstRun{inner: inner, start: t}, SubtreeLeaves: buildS, Trace: root}
	if algo == algoDIH {
		cfg.Delta = buildDelta
	}
	rep, err := build(dist.SliceSource(data), buildB, cfg)
	wall := time.Since(t)
	cpu := cpuTime() - cpu0
	peak := mem.stop()
	root.End()
	if err != nil {
		return err
	}
	ev, err := synopsis.Evaluate(rep.Synopsis, data, 1)
	if err != nil {
		return err
	}
	res := childResult{
		BuildNs: int64(wall), CPUNs: int64(cpu), Terms: rep.Synopsis.Size(), ReportedErr: rep.MaxErr,
		MaxAbs: ev.MaxAbs, ShuffleBytes: rep.TotalShuffleBytes(), PeakMB: peak,
	}
	if tracer != nil {
		res.Layers = map[string]float64{}
		gc0.since(res.Layers)
		if err := buildLayers(res.Layers, me, tracer, before, rowBytes0, wall); err != nil {
			return err
		}
		if err := writeTrace(tracer, filepath.Dir(*traceOut), filepath.Base(*traceOut)); err != nil {
			return err
		}
	}
	return printJSON(res)
}

var buildCounters = []string{
	"mr_arena_block_allocs", "mr_arena_block_gets", "mr_sort_radix", "mr_sort_comparison",
	"mr_speculative_attempts", "dist_probes_total", "dist_greedy_runs", "dist_greedy_candidates",
}

// buildLayers fills the per-layer metrics of one traced build.
func buildLayers(l map[string]float64, me *meteredEngine, tracer *obs.Tracer, c counters, rowBytes0 int64, wall time.Duration) error {
	runS := float64(me.runNs.Load()) / 1e9
	l["mr.jobs"] = float64(me.jobs.Load())
	l["mr.run_s"] = runS
	l["mr.user_fn_s"] = float64(me.userNs.Load()) / 1e9
	l["mr.emit_s"] = float64(me.emitNs.Load()) / 1e9
	l["mr.slot_busy_ratio"] = ratio(float64(me.busyNs.Load())/1e9, runS*float64(runtime.GOMAXPROCS(0)))
	l["mr.alloc_mb"] = float64(me.allocBytes.Load()) / 1e6
	l["mr.shuffle_records"] = float64(me.shuffleRecords.Load())
	l["mr.arena_reuse_ratio"] = 1 - ratio(c.delta("mr_arena_block_allocs"), c.delta("mr_arena_block_gets"))
	l["mr.radix_sort_share"] = ratio(c.delta("mr_sort_radix"), c.delta("mr_sort_radix")+c.delta("mr_sort_comparison"))
	l["mr.retries"] = float64(me.retries.Load()) + c.delta("mr_speculative_attempts")
	l["dist.driver_self_s"] = wall.Seconds() - runS
	l["dist.probes"] = c.delta("dist_probes_total")
	l["dist.layer_row_mb"] = float64(obs.Default.Histogram("dist_layer_row_bytes").Sum()-rowBytes0) / 1e6
	l["dist.greedy_runs_per_candidate"] = ratio(c.delta("dist_greedy_runs"), c.delta("dist_greedy_candidates"))

	roots, err := spanTree(tracer)
	if err != nil {
		return err
	}
	self := selfByName(roots, func(name string) string {
		switch {
		case name == "shuffle":
			return "mr.shuffle_s"
		case name == "bounds":
			return "dist.bounds_s"
		case strings.HasPrefix(name, "layer-up:"):
			return "dist.layer_up_s"
		case strings.HasPrefix(name, "layer-down:"):
			return "dist.layer_down_s"
		case slices.Contains(searchSpans, name), strings.HasPrefix(name, "probe:"):
			return "dist.search_s"
		}
		return ""
	})
	for _, k := range []string{"mr.shuffle_s", "dist.bounds_s", "dist.layer_up_s", "dist.layer_down_s", "dist.search_s"} {
		l[k] = self[k]
	}
	named := runS
	for _, k := range accountedLayers {
		named += l[k]
	}
	l["trace.accounted_ratio"] = named / wall.Seconds()
	return nil
}

// searchSpans are the driver's own top-level spans: their self time is
// the work a build does outside every job and every bounds or layer
// span (DIndirectHaar's binary search and root sub-tree DP, DGreedyAbs's
// driver-side greedy).
var searchSpans = []string{"dindirect-haar", "dmhaar-space", "dgreedy-abs"}

// accountedLayers, with mr.run_s, are the named layers a traced build's
// wall time is split into. The benchmark's own root span is not one of
// them, so time the layers miss lowers trace.accounted_ratio, and
// overlapping or misnested spans raise it.
var accountedLayers = []string{"dist.bounds_s", "dist.layer_up_s", "dist.layer_down_s", "dist.search_s"}

// accountedShare is how far trace.accounted_ratio may stray from 1
// before the traced run fails its trace check.
const accountedShare = 0.05

// firstRun passes every job to inner and, on the first, prints the
// child's ready line with the time since start.
type firstRun struct {
	inner mr.TracingEngine
	start time.Time
	once  sync.Once
}

func (e *firstRun) Run(job *mr.Job) (*mr.Result, error) { return e.RunWith(job, mr.JobOptions{}) }

func (e *firstRun) RunWith(job *mr.Job, opts mr.JobOptions) (*mr.Result, error) {
	var err error
	e.once.Do(func() { err = printJSON(childReady{SetupNs: int64(time.Since(e.start))}) })
	if err != nil {
		return nil, err
	}
	return e.inner.RunWith(job, opts)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
