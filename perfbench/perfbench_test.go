package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dwmaxerr/internal/serve"
	"dwmaxerr/internal/synopsis"
)

// childCrash is a build child that dies with a Go fatal error, which no
// recover can catch: what the DGreedyAbs map race does to a build.
const childCrash = "crash"

func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "-child" && os.Args[2] == childCrash {
		printJSON(childReady{SetupNs: 1})
		var mu sync.Mutex
		mu.Unlock() // fatal error: sync: unlock of unlocked mutex
	}
	os.Exit(m.Run())
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n     int
		level float64
		ok    bool
	}{
		{1000, 0.99, true}, // 10 beyond the 990th
		{999, 0.95, true},  // nine beyond the p99: falls back to the p95
		{200, 0.95, true},
		{100, 0.9, true},
		{20, 0.5, true},
		{19, 0, false},
		{0, 0, false},
	} {
		v, level, ok := tail(seq(tc.n), 0.99)
		if ok != tc.ok || (ok && level != tc.level) {
			t.Errorf("n=%d: level %g ok %v, want level %g ok %v", tc.n, level, ok, tc.level, tc.ok)
		}
		if ok && beyond(tc.n, level) < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it", tc.n, 100*level, beyond(tc.n, level))
		}
		if ok && v != rank(seq(tc.n), level) {
			t.Errorf("n=%d: value %g is not the p%g", tc.n, v, 100*level)
		}
	}
}

func TestCrashingChildCountsOnceAndRunContinues(t *testing.T) {
	out, err := spawnBuild(mustExecutable(t), childCrash, "unused", false, "")
	if err != nil {
		t.Fatalf("a crashing child must be an outcome, not a benchmark error: %v", err)
	}
	if out.crash != "fatal error: sync: unlock of unlocked mutex" {
		t.Fatalf("crash line %q", out.crash)
	}
	if out.ready == nil {
		t.Fatalf("the ready line printed before the crash was lost")
	}

	// Through the run loop: every build crashes, each counts once, and the
	// run still reports.
	o := &opts{seed: 1, seconds: 0.01, dir: t.TempDir()}
	r, err := runBuilds(o, childCrash)
	if err != nil {
		t.Fatalf("the run stopped on crashing builds: %v", err)
	}
	if r.attempted != buildInputs || r.failed != buildInputs {
		t.Fatalf("attempted %d failed %d, want %d crashes counted once each", r.attempted, r.failed, buildInputs)
	}
	if len(r.crashes) != 1 || r.crashes["fatal error: sync: unlock of unlocked mutex"] != buildInputs {
		t.Fatalf("crash record %v", r.crashes)
	}
	if len(r.wrong) != 0 {
		t.Fatalf("a crash is not a wrong answer: %v", r.wrong)
	}
}

func mustExecutable(t *testing.T) string {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return self
}

func TestCheckBuildRejectsWrongSynopsis(t *testing.T) {
	good := childResult{Terms: buildB, ReportedErr: 400, MaxAbs: 400}
	if msg := checkBuild(algoDIH, &good, 400); msg != "" {
		t.Fatalf("a correct build was rejected: %s", msg)
	}
	for name, tc := range map[string]struct {
		algo string
		res  childResult
		ref  float64
	}{
		"over budget":           {algoDIH, childResult{Terms: buildB + 1, ReportedErr: 400, MaxAbs: 400}, 400},
		"reported error lies":   {algoDIH, childResult{Terms: 10, ReportedErr: 399, MaxAbs: 400}, 400},
		"dih not optimal":       {algoDIH, childResult{Terms: 10, ReportedErr: 400.5, MaxAbs: 400.5}, 400},
		"dga beyond tolerance":  {algoDGA, childResult{Terms: 10, ReportedErr: 421, MaxAbs: 421}, 400},
		"dih better than exact": {algoDIH, childResult{Terms: 10, ReportedErr: 399, MaxAbs: 399}, 400},
	} {
		if msg := checkBuild(tc.algo, &tc.res, tc.ref); msg == "" {
			t.Errorf("%s: accepted", name)
		}
	}
	within := childResult{Terms: 10, ReportedErr: 419, MaxAbs: 419}
	if msg := checkBuild(algoDGA, &within, 400); msg != "" {
		t.Errorf("dga within the bucket tolerance rejected: %s", msg)
	}
}

func TestCheckAnswerRejectsWrongAnswer(t *testing.T) {
	syn := synopsis.FromMap(8, map[int]float64{0: 4, 1: 2, 3: -1})
	ev := synopsis.NewEvaluator(syn)
	point := query{point: true, i: 5}
	rng := query{lo: 1, hi: 6}
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if msg := checkAnswer(ev, point, body(serve.PointAnswer{Index: 5, Approx: ev.Point(5)})); msg != "" {
		t.Fatalf("correct point rejected: %s", msg)
	}
	if msg := checkAnswer(ev, rng, body(serve.RangeAnswer{Lo: 1, Hi: 6, Sum: ev.RangeSum(1, 6)})); msg != "" {
		t.Fatalf("correct range rejected: %s", msg)
	}
	for name, b := range map[string][]byte{
		"wrong value":  body(serve.PointAnswer{Index: 5, Approx: ev.Point(5) + 1e-9}),
		"wrong index":  body(serve.PointAnswer{Index: 4, Approx: ev.Point(5)}),
		"not json":     []byte("oops"),
		"wrong sum":    body(serve.RangeAnswer{Lo: 1, Hi: 6, Sum: ev.RangeSum(1, 6) * 2}),
		"wrong bounds": body(serve.RangeAnswer{Lo: 1, Hi: 5, Sum: ev.RangeSum(1, 6)}),
	} {
		q := point
		if strings.Contains(name, "sum") || strings.Contains(name, "bounds") {
			q = rng
		}
		if msg := checkAnswer(ev, q, b); msg == "" {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := &ispan{start: 0, end: 100, children: []*ispan{
		{start: 10, end: 40},
		{start: 20, end: 50},  // overlaps the first: covered once
		{start: 90, end: 120}, // clipped to the parent
	}}
	if got := parent.self(); got != 100-40-10 {
		t.Fatalf("self = %g, want 50", got)
	}
	leaf := &ispan{start: 5, end: 7}
	if got := leaf.self(); got != 2 {
		t.Fatalf("leaf self = %g, want 2", got)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// One worker, a 20 ms operation, due every 10 ms: the queue grows, so
	// later requests wait, and that wait is part of their latency.
	run := openLoop(100, 200*time.Millisecond, 1, func(int) bool {
		time.Sleep(20 * time.Millisecond)
		return true
	})
	lat := run.lat.sorted()
	if len(lat) != 20 {
		t.Fatalf("%d samples, want 20", len(lat))
	}
	if lat[len(lat)-1] < 150 {
		t.Fatalf("slowest latency %g ms: waiting behind earlier requests was not counted", lat[len(lat)-1])
	}
	if !run.backlogGrew(ladderLagMs) {
		t.Fatalf("backlog of an overloaded generator not detected")
	}
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
