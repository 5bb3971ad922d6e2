package dist

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dwmaxerr/internal/chaos"
	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/dp"
	"dwmaxerr/internal/mr"
	"dwmaxerr/internal/obs"
)

// Chaos soak: whole pipelines under seeded fault schedules — corrupted
// frames, dropped task sends, injected latency, and a killed-and-restarted
// driver — must reproduce the fault-free synopses byte for byte, with the
// faults visible in the counters. The schedules are deterministic
// (seed-driven, absolute hit counts), so a failure here replays exactly.

// TestChaosSoakClusterDGreedyAbs runs the full cluster DGreedyAbs pipeline
// while the wire layer corrupts a reply frame, drops a task frame, and
// delays task execution probabilistically. Self-healing workers plus
// RejoinGrace keep the job alive; the result must match the fault-free
// local run exactly.
func TestChaosSoakClusterDGreedyAbs(t *testing.T) {
	data := randData(707, 512, 1000)
	const eb = 0.25

	// Fault-free baseline first: chaos is process-global.
	local, err := DGreedyAbs(SliceSource(data), 64, Config{SubtreeLeaves: 32, BucketWidth: eb})
	if err != nil {
		t.Fatal(err)
	}

	in, err := chaos.New(9001,
		"mr.worker.send:corrupt#3;mr.coord.send:drop#5;mr.worker.task:delay=5ms@0.15")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Enable(in)
	defer chaos.Disable()

	corrupt0 := obs.Default.Counter("mr_wire_corrupt_frames").Value()
	reconnects0 := obs.Default.Counter("mr_worker_reconnects").Value()
	dups0 := obs.Default.Counter("mr_task_commit_dups").Value()

	path := filepath.Join(t.TempDir(), "data.bin")
	if err := dataset.SaveBinary(path, data); err != nil {
		t.Fatal(err)
	}
	c, err := mr.NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.MaxAttempts = 5
	c.RejoinGrace = 5 * time.Second
	t.Cleanup(func() { c.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })

	for _, name := range []string{"soak-a", "soak-b", "soak-c"} {
		go mr.ServeWorker(c.Addr(), name, stop, mr.WorkerOptions{
			ReconnectMax:  8,
			ReconnectBase: 10 * time.Millisecond,
			ReconnectCap:  100 * time.Millisecond,
		})
	}
	if err := c.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	src, err := NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := DGreedyAbs(src, 64, Config{Engine: c, SubtreeLeaves: 32, BucketWidth: eb})
	if err != nil {
		t.Fatal(err)
	}

	if cluster.MaxErr != local.MaxErr {
		t.Fatalf("max_abs diverged under chaos: cluster %g local %g", cluster.MaxErr, local.MaxErr)
	}
	if !reflect.DeepEqual(termIndices(cluster.Synopsis), termIndices(local.Synopsis)) {
		t.Fatalf("synopses diverged under chaos:\ncluster %v\nlocal   %v",
			termIndices(cluster.Synopsis), termIndices(local.Synopsis))
	}
	if !reflect.DeepEqual(sumCounters(cluster.Jobs), sumCounters(local.Jobs)) {
		t.Fatalf("user counters diverged under chaos:\ncluster %v\nlocal   %v",
			sumCounters(cluster.Jobs), sumCounters(local.Jobs))
	}

	// The schedule really fired: one corrupted reply (seen and rejected by
	// the coordinator's frame reader), one dropped task send, and the
	// victims re-joined without duplicate commits.
	if fired := in.Fired("mr.worker.send"); fired != 1 {
		t.Fatalf("corrupt rule fired %d times, want 1", fired)
	}
	if fired := in.Fired("mr.coord.send"); fired != 1 {
		t.Fatalf("drop rule fired %d times, want 1", fired)
	}
	if d := obs.Default.Counter("mr_wire_corrupt_frames").Value() - corrupt0; d < 1 {
		t.Fatalf("mr_wire_corrupt_frames delta = %d, want >= 1", d)
	}
	if d := obs.Default.Counter("mr_worker_reconnects").Value() - reconnects0; d < 1 {
		t.Fatalf("mr_worker_reconnects delta = %d, want >= 1", d)
	}
	if d := obs.Default.Counter("mr_task_commit_dups").Value() - dups0; d != 0 {
		t.Fatalf("mr_task_commit_dups delta = %d, want 0", d)
	}
}

// TestChaosDIndirectHaarDriverKillResume kills the DIndirectHaar driver on
// its third binary-search probe, then restarts it against the same
// file-backed checkpoint store. The resumed search replays the first two
// probe verdicts (strictly fewer fresh probes, counted), and lands on the
// byte-identical synopsis of a fault-free run.
func TestChaosDIndirectHaarDriverKillResume(t *testing.T) {
	data := randData(411, 256, 100)
	cfg := Config{SubtreeLeaves: 32, Delta: 1}

	probes0 := obsProbes.Value()
	baseline, err := DIndirectHaar(SliceSource(data), 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseProbes := obsProbes.Value() - probes0
	if baseProbes < 3 {
		t.Fatalf("baseline ran %d probes; the schedule below needs >= 3 (tune the test inputs)", baseProbes)
	}

	in, err := chaos.New(7, "dist.probe:drop#3")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Enable(in)
	defer chaos.Disable()

	dir := filepath.Join(t.TempDir(), "ck")

	// Run 1: the driver dies on probe 3 (probes 1-2 already checkpointed).
	store, err := NewFileCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	killedCfg := cfg
	killedCfg.Checkpoint = store
	probes1 := obsProbes.Value()
	if _, err := DIndirectHaar(SliceSource(data), 20, killedCfg); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("killed run: got %v, want an injected fault", err)
	}
	if d := obsProbes.Value() - probes1; d != 2 {
		t.Fatalf("killed run counted %d probes, want 2 (died on the third)", d)
	}

	// Run 2: a fresh driver over the same store — the restart. The injector
	// stays enabled; replayed probes never reach the chaos point, so the
	// absolute-hit rule cannot re-fire.
	store2, err := NewFileCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumedCfg := cfg
	resumedCfg.Checkpoint = store2
	probes2 := obsProbes.Value()
	hits0 := obsCheckpointHits.Value()
	resumed, err := DIndirectHaar(SliceSource(data), 20, resumedCfg)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	resumedProbes := obsProbes.Value() - probes2
	if resumedProbes >= baseProbes {
		t.Fatalf("resumed run counted %d fresh probes, baseline %d — checkpoint saved nothing", resumedProbes, baseProbes)
	}
	if d := obsCheckpointHits.Value() - hits0; d < 2 {
		t.Fatalf("dist_checkpoint_hits delta = %d, want >= 2 (the replayed probes)", d)
	}

	if resumed.MaxErr != baseline.MaxErr {
		t.Fatalf("max_abs diverged after resume: %g vs baseline %g", resumed.MaxErr, baseline.MaxErr)
	}
	if !reflect.DeepEqual(termIndices(resumed.Synopsis), termIndices(baseline.Synopsis)) {
		t.Fatalf("synopses diverged after resume:\nresumed  %v\nbaseline %v",
			termIndices(resumed.Synopsis), termIndices(baseline.Synopsis))
	}
}

// TestChaosDMHaarSpaceLayerResume is the layer-granularity variant: the
// driver dies between bottom-up layers and a restart replays the finished
// layer's M-rows instead of re-running its job.
func TestChaosDMHaarSpaceLayerResume(t *testing.T) {
	data := randData(55, 256, 100)
	p := dp.Params{Epsilon: 60, Delta: 1}
	cfg := Config{SubtreeLeaves: 16}

	baseline, err := DMHaarSpace(SliceSource(data), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Feasible {
		t.Fatal("baseline infeasible; raise Epsilon")
	}

	in, err := chaos.New(3, "dist.layer:drop#2")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Enable(in)
	defer chaos.Disable()

	store := NewMemCheckpoint()
	ckCfg := cfg
	ckCfg.Checkpoint = store
	if _, err := DMHaarSpace(SliceSource(data), p, ckCfg); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("killed run: got %v, want an injected fault", err)
	}
	if store.Len() == 0 {
		t.Fatal("killed run checkpointed nothing before dying")
	}

	hits0 := obsCheckpointHits.Value()
	resumed, err := DMHaarSpace(SliceSource(data), p, ckCfg)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if d := obsCheckpointHits.Value() - hits0; d < 1 {
		t.Fatalf("dist_checkpoint_hits delta = %d, want >= 1 (the replayed layer)", d)
	}
	// The resumed run ran fewer layer jobs than the baseline: the replayed
	// layer contributes no job metrics.
	if len(resumed.Jobs) >= len(baseline.Jobs) {
		t.Fatalf("resumed run executed %d jobs, baseline %d — layer not replayed",
			len(resumed.Jobs), len(baseline.Jobs))
	}
	if resumed.Feasible != baseline.Feasible {
		t.Fatal("feasibility diverged after layer resume")
	}
	if !reflect.DeepEqual(termIndices(resumed.Synopsis), termIndices(baseline.Synopsis)) {
		t.Fatalf("synopses diverged after layer resume:\nresumed  %v\nbaseline %v",
			termIndices(resumed.Synopsis), termIndices(baseline.Synopsis))
	}
}
