// End-to-end smoke tests over the real binaries: a two-worker TCP
// cluster built from cmd/dwworker with its /debug/vars metrics endpoint
// scraped mid-session, and cmd/dwtcli's -trace export of a full
// DIndirectHaar build. Skipped under -short (they compile binaries and
// open sockets).
package cmd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/dist"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
)

// buildCmd compiles ./cmd/<name> into dir and returns the binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	out := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
	cmd.Dir = ".."
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, b)
	}
	return out
}

// writeDataset saves a deterministic random vector as binary float64.
func writeDataset(t *testing.T, dir string, n int) (string, []float64) {
	t.Helper()
	rnd := rand.New(rand.NewSource(42))
	data := make([]float64, n)
	for i := range data {
		data[i] = rnd.Float64() * 1000
	}
	path := filepath.Join(dir, "data.bin")
	if err := dataset.SaveBinary(path, data); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// awaitLine scans lines until re matches, returning the first submatch.
func awaitLine(t *testing.T, r io.Reader, re *regexp.Regexp, what string) string {
	t.Helper()
	found := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				found <- m[1]
				// Keep draining so the child never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
		}
	}()
	select {
	case v := <-found:
		return v
	case <-time.After(15 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return ""
	}
}

var metricsAddrRE = regexp.MustCompile(`metrics on http://([^/]+)/debug/vars`)

// scrapeVars fetches and decodes one /debug/vars snapshot.
func scrapeVars(addr string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// traceDoc mirrors the Chrome trace-event file layout.
type traceDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	} `json:"traceEvents"`
}

func readTrace(t *testing.T, path string) traceDoc {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Ts < 0 {
			t.Fatalf("malformed trace event %+v", e)
		}
	}
	return doc
}

// TestClusterWorkersEndToEnd drives a real DGreedyAbs job over two
// dwworker processes, scrapes their /debug/vars while they are alive,
// and checks the recorded span tree covers every task attempt.
func TestClusterWorkersEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: skipped in -short mode")
	}
	dir := t.TempDir()
	dwworker := buildCmd(t, dir, "dwworker")
	dataPath, _ := writeDataset(t, dir, 512)

	c, err := mr.NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var metricsAddrs []string
	for i := 0; i < 2; i++ {
		w := exec.Command(dwworker,
			"-join", c.Addr(), "-name", fmt.Sprintf("w%d", i),
			"-metrics", "127.0.0.1:0")
		stderr, err := w.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		proc := w
		t.Cleanup(func() { proc.Process.Kill(); proc.Wait() })
		metricsAddrs = append(metricsAddrs,
			awaitLine(t, stderr, metricsAddrRE, "worker metrics address"))
	}
	if err := c.WaitForWorkers(2, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewTracer()
	root := tracer.Start("e2e-dgreedyabs")
	src, err := dist.NewFileSource(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dist.DGreedyAbs(src, 64, dist.Config{Engine: c, SubtreeLeaves: 32, Trace: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Synopsis.Size() == 0 || rep.Synopsis.Size() > 64 {
		t.Fatalf("synopsis has %d terms, want 1..64", rep.Synopsis.Size())
	}

	// Workers are still connected (the coordinator has not closed), so
	// their metrics endpoints reflect the finished job.
	var executed int64
	for i, addr := range metricsAddrs {
		// Heartbeats are periodic; poll until the worker's first one.
		var snap obs.Snapshot
		deadline := time.Now().Add(10 * time.Second)
		for {
			snap, err = scrapeVars(addr)
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
			if snap.Counters["mr_worker_heartbeats_sent"] >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d sent no heartbeats: %v", i, snap.Counters)
			}
			time.Sleep(50 * time.Millisecond)
		}
		if snap.Counters["mr_wire_bytes_received"] <= 0 {
			t.Fatalf("worker %d recorded no wire traffic", i)
		}
		executed += snap.Counters["mr_worker_tasks_executed"]
	}
	attempts := 0
	for _, j := range rep.Jobs {
		attempts += len(j.MapStats) + len(j.ReduceStats)
	}
	if executed < int64(attempts) {
		t.Fatalf("workers report %d executed tasks, coordinator committed %d attempts", executed, attempts)
	}

	// The span tree covers every committed task attempt of every job.
	spans := 0
	jobs := 0
	root.Walk(func(s *obs.Span) {
		switch {
		case s.Name() == "map" || s.Name() == "reduce":
			spans++
		case strings.HasPrefix(s.Name(), "job:"):
			jobs++
		}
	})
	if jobs != len(rep.Jobs) {
		t.Fatalf("trace has %d job spans, report has %d jobs", jobs, len(rep.Jobs))
	}
	if spans != attempts {
		t.Fatalf("trace has %d task-attempt spans, metrics report %d attempts", spans, attempts)
	}

	tracePath := filepath.Join(dir, "cluster-trace.json")
	if err := tracer.WriteChromeTraceFile(tracePath); err != nil {
		t.Fatal(err)
	}
	doc := readTrace(t, tracePath)
	if len(doc.TraceEvents) < attempts {
		t.Fatalf("trace file has %d events, want >= %d", len(doc.TraceEvents), attempts)
	}
}

// TestCoordinatorProcessTrace runs the dwworker coordinator mode as a
// real process with -trace and checks it completes and writes a valid
// trace file.
func TestCoordinatorProcessTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: skipped in -short mode")
	}
	dir := t.TempDir()
	dwworker := buildCmd(t, dir, "dwworker")
	dataPath, _ := writeDataset(t, dir, 512)
	tracePath := filepath.Join(dir, "trace.json")

	coord := exec.Command(dwworker,
		"-coordinate", "127.0.0.1:0", "-workers", "2",
		"-data", dataPath, "-budget", "64", "-subtree", "32",
		"-algo", "dgreedyabs", "-trace", tracePath)
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	coord.Stdout = &out
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Process.Kill() })
	addr := awaitLine(t, stderr,
		regexp.MustCompile(`coordinating on ([0-9.:]+)`), "coordinator address")

	for i := 0; i < 2; i++ {
		w := exec.Command(dwworker, "-join", addr, "-name", fmt.Sprintf("w%d", i))
		w.Stderr = io.Discard
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		proc := w
		t.Cleanup(func() { proc.Process.Kill(); proc.Wait() })
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator failed: %v", err)
	}
	if !strings.Contains(out.String(), "synopsis:") {
		t.Fatalf("coordinator output missing synopsis summary:\n%s", out.String())
	}
	doc := readTrace(t, tracePath)
	var maps, jobs int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Name == "map":
			maps++
		case strings.HasPrefix(e.Name, "job:"):
			jobs++
		}
	}
	if jobs != 4 {
		t.Fatalf("trace has %d job spans, DGreedyAbs pipeline runs 4 jobs", jobs)
	}
	if maps < 16 {
		t.Fatalf("trace has %d map spans, want >= 16 (one per 32-leaf sub-tree)", maps)
	}
}

// TestDwtcliTraceDIndirectHaar is the acceptance check for the -trace
// flag: a full DIndirectHaar build through the CLI must emit valid
// Chrome trace-event JSON with per-layer DP spans.
func TestDwtcliTraceDIndirectHaar(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: skipped in -short mode")
	}
	dir := t.TempDir()
	dwtcli := buildCmd(t, dir, "dwtcli")
	dataPath, _ := writeDataset(t, dir, 512)
	tracePath := filepath.Join(dir, "trace.json")

	cmd := exec.Command(dwtcli,
		"-in", dataPath, "-algo", "dindirecthaar",
		"-budget", "64", "-subtree", "32", "-delta", "10",
		"-trace", tracePath)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dwtcli: %v\n%s", err, b)
	}
	doc := readTrace(t, tracePath)
	var layers, probes, tasks int
	sawAlg := false
	for _, e := range doc.TraceEvents {
		switch {
		case strings.HasPrefix(e.Name, "layer-up:"):
			layers++
		case strings.HasPrefix(e.Name, "probe:"):
			probes++
		case e.Name == "map" || e.Name == "reduce":
			tasks++
		case e.Name == "dindirect-haar":
			sawAlg = true
		}
	}
	if !sawAlg {
		t.Fatal("trace has no dindirect-haar span")
	}
	if layers == 0 || probes == 0 || tasks == 0 {
		t.Fatalf("trace missing spans: %d layer-up, %d probe, %d task", layers, probes, tasks)
	}
}
