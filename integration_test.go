package dwmaxerr

// End-to-end pipeline test: generate a dataset, stage it on disk, build
// the synopsis with the full cluster DGreedyAbs (TCP workers), persist it
// in the binary format, serve it over HTTP, and verify queries against the
// ground truth — every deliverable surface in one flow.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/dist"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/serve"
	"dwmaxerr/internal/synopsis"
)

func TestEndToEndPipeline(t *testing.T) {
	const (
		n       = 1 << 12
		budget  = n / 8
		subtree = 1 << 8
	)
	// 1. Generate and stage the dataset.
	data := dataset.NYCTLike{}.Generate(n, 77)
	dir := t.TempDir()
	path := filepath.Join(dir, "trips.bin")
	if err := dataset.SaveBinary(path, data); err != nil {
		t.Fatal(err)
	}

	// 2. Bring up a TCP cluster and build the synopsis with DGreedyAbs.
	coord, err := mr.NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	stop := make(chan struct{})
	defer close(stop)
	for i := 0; i < 3; i++ {
		go mr.Serve(coord.Addr(), "itest-worker", stop)
	}
	if err := coord.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	src, err := dist.NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dist.DGreedyAbs(src, budget, dist.Config{Engine: coord, SubtreeLeaves: subtree})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Synopsis.Size() > budget {
		t.Fatalf("size %d > budget %d", rep.Synopsis.Size(), budget)
	}
	// The reported error must match a direct measurement.
	actual := synopsis.MaxAbsError(rep.Synopsis, data)
	if math.Abs(actual-rep.MaxErr) > 1e-9*(1+actual) {
		t.Fatalf("cluster reported %g, direct measurement %g", rep.MaxErr, actual)
	}

	// 3. Persist and reload in the binary format.
	synPath := filepath.Join(dir, "trips.synopsis")
	var buf bytes.Buffer
	if err := WriteSynopsis(&buf, rep.Synopsis); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(synPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(synPath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSynopsis(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != rep.Synopsis.Size() || loaded.N != n {
		t.Fatalf("reloaded synopsis differs: %d terms over %d", loaded.Size(), loaded.N)
	}

	// 4. Serve over HTTP and spot-check guaranteed answers.
	srv, err := serve.New(loaded, rep.MaxErr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, k := range []int{0, 7, 999, n - 1} {
		resp, err := http.Get(ts.URL + "/point?i=" + strconv.Itoa(k))
		if err != nil {
			t.Fatal(err)
		}
		var ans serve.PointAnswer
		if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ans.Lo == nil || data[k] < *ans.Lo-1e-9 || data[k] > *ans.Hi+1e-9 {
			t.Fatalf("point %d: exact %g outside served interval [%v, %v]", k, data[k], ans.Lo, ans.Hi)
		}
	}
	resp, err := http.Get(ts.URL + "/range?lo=100&hi=1123")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rng serve.RangeAnswer
	if err := json.NewDecoder(resp.Body).Decode(&rng); err != nil {
		t.Fatal(err)
	}
	exact := 0.0
	for _, v := range data[100:1124] {
		exact += v
	}
	if rng.SumLo == nil || exact < *rng.SumLo-1e-6 || exact > *rng.SumHi+1e-6 {
		t.Fatalf("range sum %g outside served interval [%v, %v]", exact, rng.SumLo, rng.SumHi)
	}
	relOff := math.Abs(rng.Sum-exact) / exact
	if relOff > 0.10 {
		t.Fatalf("range estimate %g is %.1f%% off exact %g", rng.Sum, 100*relOff, exact)
	}
}

func TestEndToEndStreamingIngest(t *testing.T) {
	// Stream ingestion → conventional synopsis → identical to the batch
	// path over the same data.
	const n = 1 << 10
	data := dataset.WDLike{}.Generate(n, 3)
	i := 0
	streamed, err := StreamConventional(n, n/8, func() (float64, bool) {
		if i >= n {
			return 0, false
		}
		v := data[i]
		i++
		return v, true
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Build(data, Conventional, Options{Budget: n / 8})
	if err != nil {
		t.Fatal(err)
	}
	se, _ := Evaluate(streamed, data, 1)
	be, _ := Evaluate(batch.Synopsis, data, 1)
	if se.L2 != be.L2 || se.MaxAbs != be.MaxAbs {
		t.Fatalf("streamed errors %+v != batch %+v", se, be)
	}
}
