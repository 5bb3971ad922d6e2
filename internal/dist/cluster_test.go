package dist

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/synopsis"
)

// startCoordinator brings up a coordinator with workers TCP workers that
// count the tasks they receive into tasks (may be nil).
func startCoordinator(t *testing.T, workers int, tasks *atomic.Int64) *mr.Coordinator {
	t.Helper()
	c, err := mr.NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	for i := 0; i < workers; i++ {
		go mr.ServeWorker(c.Addr(), "worker", stop, mr.WorkerOptions{
			TaskHook: func(string, int, int) error {
				if tasks != nil {
					tasks.Add(1)
				}
				return nil
			},
		})
	}
	if err := c.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// fileSource stages data as a binary file and opens it.
func fileSource(t *testing.T, data []float64) *FileSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := dataset.SaveBinary(path, data); err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// encodeSynopsis is the synopsis' binary encoding, for byte-identity
// checks.
func encodeSynopsis(t *testing.T, s *synopsis.Synopsis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCONClusterMatchesLocal(t *testing.T) {
	data := randData(91, 256, 1000)
	c := startCoordinator(t, 3, nil)

	cluster, err := CON(fileSource(t, data), 32, Config{Engine: c, SubtreeLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	local, err := CON(SliceSource(data), 32, Config{SubtreeLeaves: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSynopsis(t, cluster.Synopsis), encodeSynopsis(t, local.Synopsis)) {
		t.Fatalf("cluster terms %v != local %v", cluster.Synopsis.Terms, local.Synopsis.Terms)
	}
	if cluster.Jobs[0].ShuffleBytes != local.Jobs[0].ShuffleBytes {
		t.Fatalf("shuffle bytes differ: %d vs %d", cluster.Jobs[0].ShuffleBytes, local.Jobs[0].ShuffleBytes)
	}
}

func TestCONClusterValidation(t *testing.T) {
	c := startCoordinator(t, 1, nil)
	if _, err := NewFileSource("/nonexistent"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := CON(fileSource(t, make([]float64, 64)), 0, Config{Engine: c, SubtreeLeaves: 8}); err == nil {
		t.Fatal("budget 0 accepted")
	}
}

// TestDGreedyAbsClusterMatchesLocal runs both DGreedy drivers on one
// coordinator: each must give the byte-identical synopsis and equal error
// of the in-process engine, in the same four jobs.
func TestDGreedyAbsClusterMatchesLocal(t *testing.T) {
	data := randData(301, 512, 1000)
	src := fileSource(t, data)
	c := startCoordinator(t, 3, nil)

	// Fix the bucket width so local and cluster use identical parameters.
	const eb = 0.25
	for _, tc := range []struct {
		name  string
		build func(Source, int, Config) (*Report, error)
	}{{"abs", DGreedyAbs}, {"rel", DGreedyRel}} {
		cluster, err := tc.build(src, 64, Config{Engine: c, SubtreeLeaves: 32, BucketWidth: eb})
		if err != nil {
			t.Fatal(tc.name, err)
		}
		local, err := tc.build(SliceSource(data), 64, Config{SubtreeLeaves: 32, BucketWidth: eb})
		if err != nil {
			t.Fatal(tc.name, err)
		}
		if cluster.MaxErr != local.MaxErr {
			t.Fatalf("%s: cluster max error %g != local %g", tc.name, cluster.MaxErr, local.MaxErr)
		}
		if !bytes.Equal(encodeSynopsis(t, cluster.Synopsis), encodeSynopsis(t, local.Synopsis)) {
			t.Fatalf("%s: synopses differ:\ncluster %v\nlocal   %v",
				tc.name, cluster.Synopsis.Terms, local.Synopsis.Terms)
		}
		if len(cluster.Jobs) != 4 {
			t.Fatalf("%s: cluster ran %d jobs, want 4", tc.name, len(cluster.Jobs))
		}
	}
}

func TestDGreedyAbsClusterValidation(t *testing.T) {
	c := startCoordinator(t, 1, nil)
	if _, err := NewFileSource("/missing"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := DGreedyAbs(fileSource(t, make([]float64, 64)), 0, Config{Engine: c, SubtreeLeaves: 8}); err == nil {
		t.Fatal("budget 0 accepted")
	}
}

// TestClusterRejectsUnshippableJobs: a job workers cannot rebuild — one no
// factory is registered for (DIndirectHaar's), or one over an in-memory
// source — fails with an error naming it, before any task is sent.
func TestClusterRejectsUnshippableJobs(t *testing.T) {
	data := randData(5, 256, 100)
	var tasks atomic.Int64
	c := startCoordinator(t, 2, &tasks)
	cfg := Config{Engine: c, SubtreeLeaves: 32}

	_, err := DIndirectHaar(fileSource(t, data), 16, cfg)
	if err == nil || !strings.Contains(err.Error(), `"top-coefficients"`) {
		t.Fatalf("DIndirectHaar on a coordinator: err = %v, want one naming its first job", err)
	}
	_, err = DGreedyAbs(SliceSource(data), 16, cfg)
	if err == nil || !strings.Contains(err.Error(), `"chunk-means"`) {
		t.Fatalf("DGreedyAbs over a SliceSource on a coordinator: err = %v, want one naming chunk-means", err)
	}
	if n := tasks.Load(); n != 0 {
		t.Fatalf("workers received %d tasks", n)
	}
}
