package dist

import (
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
)

// Cluster fault injection at the algorithm level: DGreedyAbs across TCP
// workers with crashes mid-map and mid-reduce must produce the identical
// synopsis, error, and user-counter totals as the clean local run, with
// the retries visible in the job metrics — the trustworthiness the
// paper's Section 6 experiments assume of their Hadoop runtime.

func sumCounters(jobs []mr.Metrics) map[string]int64 {
	total := map[string]int64{}
	for _, j := range jobs {
		for k, v := range j.UserCounters {
			total[k] += v
		}
	}
	return total
}

func TestDGreedyAbsClusterSurvivesWorkerCrashes(t *testing.T) {
	// Registry deltas measured around the run (obs.Default is
	// process-wide; workers here are in-process goroutines, so their
	// execution counters land in the same registry).
	retries0 := obs.Default.Counter("mr_task_retries").Value()
	greedyRuns0 := obsGreedyRuns.Value()
	candidates0 := obsGreedyCandidates.Value()
	wireSent0 := obs.Default.Counter("mr_wire_bytes_sent").Value()
	shuffle0 := obs.Default.Counter("mr_shuffle_bytes").Value()

	data := randData(301, 512, 1000)
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := dataset.SaveBinary(path, data); err != nil {
		t.Fatal(err)
	}
	c, err := mr.NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	defer close(stop)

	// Two healthy workers plus one that crashes on its first map task and
	// one that crashes on its first reduce task.
	var mapCrash, reduceCrash atomic.Bool
	go mr.ServeWorker(c.Addr(), "doomed-map", stop, mr.WorkerOptions{
		TaskHook: func(kind string, taskID, attempt int) error {
			if kind == "map" && mapCrash.CompareAndSwap(false, true) {
				return errors.New("injected map crash")
			}
			return nil
		},
	})
	go mr.ServeWorker(c.Addr(), "doomed-reduce", stop, mr.WorkerOptions{
		TaskHook: func(kind string, taskID, attempt int) error {
			if kind == "reduce" && reduceCrash.CompareAndSwap(false, true) {
				return errors.New("injected reduce crash")
			}
			return nil
		},
	})
	for i := 0; i < 2; i++ {
		go mr.Serve(c.Addr(), "healthy", stop)
	}
	if err := c.WaitForWorkers(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	const eb = 0.25
	src, err := NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := DGreedyAbs(src, 64, Config{Engine: c, SubtreeLeaves: 32, BucketWidth: eb})
	if err != nil {
		t.Fatal(err)
	}
	if !mapCrash.Load() {
		t.Fatal("map crash injection never fired")
	}
	if !reduceCrash.Load() {
		t.Fatal("reduce crash injection never fired")
	}
	local, err := DGreedyAbs(SliceSource(data), 64, Config{SubtreeLeaves: 32, BucketWidth: eb})
	if err != nil {
		t.Fatal(err)
	}

	// Results must be bit-identical to the clean local run.
	if cluster.MaxErr != local.MaxErr {
		t.Fatalf("max_abs diverged under failures: cluster %g local %g", cluster.MaxErr, local.MaxErr)
	}
	if !reflect.DeepEqual(termIndices(cluster.Synopsis), termIndices(local.Synopsis)) {
		t.Fatalf("synopses diverged under failures:\ncluster %v\nlocal   %v",
			termIndices(cluster.Synopsis), termIndices(local.Synopsis))
	}

	// Retry accounting must be populated — the failures really happened.
	mapRetries, reduceRetries := 0, 0
	for _, j := range cluster.Jobs {
		mapRetries += j.MapRetries
		reduceRetries += j.ReduceRetries
	}
	if mapRetries == 0 {
		t.Fatal("no MapRetries recorded despite an injected map crash")
	}
	if reduceRetries == 0 {
		t.Fatal("no ReduceRetries recorded despite an injected reduce crash")
	}

	// Counter totals must match the clean local run exactly: retries and
	// reassignments never double- or under-count committed work.
	clusterCounters := sumCounters(cluster.Jobs)
	localCounters := sumCounters(local.Jobs)
	if len(clusterCounters) == 0 {
		t.Fatal("cluster run shipped no user counters")
	}
	if !reflect.DeepEqual(clusterCounters, localCounters) {
		t.Fatalf("user counters diverged under failures:\ncluster %v\nlocal   %v",
			clusterCounters, localCounters)
	}

	// Registry deltas: the two injected crashes triggered at least two
	// task retries; speculative C_root work was posed and executed; real
	// bytes crossed the wire and the shuffle. The local comparison run
	// above also bumps greedy/shuffle counters, so these are lower
	// bounds, while retries only occur on the cluster.
	if d := obs.Default.Counter("mr_task_retries").Value() - retries0; d < 2 {
		t.Fatalf("mr_task_retries delta = %d, want >= 2 (one map + one reduce crash)", d)
	}
	if d := obsGreedyRuns.Value() - greedyRuns0; d < 1 {
		t.Fatalf("dist_greedy_runs delta = %d, want >= 1", d)
	}
	if d := obsGreedyCandidates.Value() - candidates0; d < 1 {
		t.Fatalf("dist_greedy_candidates delta = %d, want >= 1", d)
	}
	if d := obs.Default.Counter("mr_wire_bytes_sent").Value() - wireSent0; d <= 0 {
		t.Fatalf("mr_wire_bytes_sent delta = %d, want > 0", d)
	}
	if d := obs.Default.Counter("mr_shuffle_bytes").Value() - shuffle0; d <= 0 {
		t.Fatalf("mr_shuffle_bytes delta = %d, want > 0", d)
	}
}
