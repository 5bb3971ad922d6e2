package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dwmaxerr/internal/dataset"
	"dwmaxerr/internal/greedy"
	"dwmaxerr/internal/obs"
	"dwmaxerr/internal/serve"
	"dwmaxerr/internal/synopsis"
)

// serve-zipf: routed /point and /range queries through an in-process
// 3-node, R=2 cluster over loopback peer links. The store holds three
// times as many shards as one node's cache, and shard popularity is Zipf
// skewed, so queries both hit and miss the node caches.

const (
	serveShards  = 192 // 3x a node's default 64-entry cache
	serveN       = 1 << 12
	serveB       = 256
	serveZipfS   = 1.1
	servePoints  = 0.8 // share of /point; the rest are /range
	serveReplica = 2
	serveSetups  = 60

	// serveRate is the fixed open-loop rate the latency metrics are taken
	// at, in queries per second.
	serveRate = 1000.0

	// serveSLOms is the qps_at_slo latency limit on the p99: twice the
	// unloaded p99, measured at 4.3-5.3 ms at 200 q/s on a 2-CPU box, most
	// of it scheduling delay (gen.lag_ms_p99 reads about the same). A rung
	// fails once queueing doubles the tail, not on the stalls themselves.
	serveSLOms = 10.0
	// The ladder starts at ladderFrom q/s, and ladderStep is the rate ratio
	// between rungs (at most a tenth apart); ladderLagMs is the generator
	// lateness that marks a growing backlog. On a 2-CPU box the highest
	// passing rung read 9200 and 10100 q/s (seeds 5 and 2): with requests
	// back to back, a round trip takes about 0.2 ms on each of the two
	// connections, against the 0.7 ms p50 at the fixed rate, most of which
	// is the generator waking from its sleep until the next due time.
	ladderFrom    = 1.5 * serveRate
	ladderStep    = 1.1
	ladderLagMs   = 2.0
	ladderQueries = 1000.0
)

var serveNodes = []string{"n1", "n2", "n3"}

// shardSet is the generated catalog with the answers the checker expects:
// each shard loaded straight from the store, without a node in between.
type shardSet struct {
	dir    string
	keys   []serve.ShardKey
	shards []*serve.Shard
	evs    []*synopsis.Evaluator
	enc    [][]byte  // encoded synopses, for the decode timing
	cdf    []float64 // Zipf popularity by rank
	byRank []int     // shard index of each popularity rank
}

func makeShards(dir string, seed int64) (*shardSet, error) {
	s := &shardSet{dir: dir}
	gens := []dataset.Generator{dataset.Uniform{Max: 1000}, dataset.NYCTLike{}, dataset.Zipf{Max: 1000, Exponent: 1.5}}
	for i := 0; i < serveShards; i++ {
		data := gens[i%len(gens)].Generate(serveN, seed*1000+int64(i))
		syn, maxAbs, err := greedy.SynopsisAbs(data, serveB)
		if err != nil {
			return nil, err
		}
		k := serve.ShardKey{Dataset: fmt.Sprintf("ds%03d", i), B: serveB, Metric: "abs"}
		if err := serve.WriteShard(dir, k, syn, maxAbs); err != nil {
			return nil, err
		}
		s.keys = append(s.keys, k)
	}
	st := serve.DirStore{Dir: dir}
	for _, k := range s.keys {
		sh, err := st.Load(k)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if _, err := sh.Syn.WriteTo(&b); err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
		s.evs = append(s.evs, synopsis.NewEvaluator(sh.Syn))
		s.enc = append(s.enc, b.Bytes())
	}
	total := 0.0
	for r := 1; r <= serveShards; r++ {
		total += 1 / math.Pow(float64(r), serveZipfS)
		s.cdf = append(s.cdf, total)
	}
	for i := range s.cdf {
		s.cdf[i] /= total
	}
	s.byRank = stream(seed, 0).Perm(serveShards)
	return s, nil
}

// query is one generated read.
type query struct {
	shard     int
	point     bool
	i, lo, hi int
}

// query k of the seed's stream: a pure function of (seed, k).
func (s *shardSet) query(seed int64, k int) query {
	rng := stream(seed, k+1)
	rank := sort.SearchFloat64s(s.cdf, rng.Float64())
	if rank >= serveShards {
		rank = serveShards - 1
	}
	q := query{shard: s.byRank[rank], point: rng.Float64() < servePoints}
	if q.point {
		q.i = rng.IntN(serveN)
	} else {
		q.lo = rng.IntN(serveN)
		q.hi = q.lo + rng.IntN(min(serveN/4, serveN-q.lo))
	}
	return q
}

func (q query) path(s *shardSet) string {
	ds := s.keys[q.shard].Dataset
	if q.point {
		return fmt.Sprintf("/point?dataset=%s&i=%d", ds, q.i)
	}
	return fmt.Sprintf("/range?dataset=%s&lo=%d&hi=%d", ds, q.lo, q.hi)
}

// check returns why an answer body differs from the evaluator's, or "".
func checkAnswer(ev *synopsis.Evaluator, q query, body []byte) string {
	if q.point {
		var a serve.PointAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Sprintf("point %d: %v", q.i, err)
		}
		if want := ev.Point(q.i); a.Index != q.i || a.Approx != want {
			return fmt.Sprintf("point %d: got %v, evaluator gives %v", q.i, a.Approx, want)
		}
		return ""
	}
	var a serve.RangeAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Sprintf("range [%d,%d]: %v", q.lo, q.hi, err)
	}
	if want := ev.RangeSum(q.lo, q.hi); a.Lo != q.lo || a.Hi != q.hi || a.Sum != want {
		return fmt.Sprintf("range [%d,%d]: got %v, evaluator gives %v", q.lo, q.hi, a.Sum, want)
	}
	return ""
}

// cluster is one running serve tier: nodes, router and its HTTP front.
type cluster struct {
	nodes  []*serve.Node
	peers  []serve.Peer
	nodeWG sync.WaitGroup
	router *serve.Router
	front  *httpFront
}

// httpFront serves a handler on a loopback listener until closed.
type httpFront struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func startFront(h http.Handler) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return f, nil
}

func (f *httpFront) close() {
	f.srv.Close()
	<-f.done
}

// startCluster boots the nodes over store, warms them, starts a router
// and dials every node once: the program's set-up before the first
// timed query.
func startCluster(store serve.Store, set *shardSet, client *http.Client, seed int64) (*cluster, error) {
	c := &cluster{}
	var peers []serve.Peer
	for _, name := range serveNodes {
		n, err := serve.NewNode(serve.NodeConfig{Name: name, Nodes: serveNodes, Replicas: serveReplica, Store: store})
		if err != nil {
			c.close()
			return nil, err
		}
		if _, err := n.Warm(); err != nil {
			n.Close()
			c.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			n.Close()
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.nodeWG.Add(1)
		go func() {
			defer c.nodeWG.Done()
			n.Serve(ln) // returns nil once the node is closed
		}()
		peers = append(peers, serve.Peer{Name: name, Addr: ln.Addr().String()})
	}
	c.peers = peers
	if err := c.startRouter(nil, seed); err != nil {
		c.close()
		return nil, err
	}
	// First dial of every peer link: one /info per node, on a shard that
	// node is primary for.
	ring := serve.NewRing(0, serveNodes...)
	for _, name := range serveNodes {
		for _, k := range set.keys {
			if ring.Owners(k, serveReplica)[0] != name {
				continue
			}
			if code, _, err := get(client, c.front.url+"/info?dataset="+k.Dataset); err != nil || code != http.StatusOK {
				c.close()
				return nil, fmt.Errorf("first query to %s: status %d, %v", name, code, err)
			}
			break
		}
	}
	return c, nil
}

func (c *cluster) startRouter(tracer *obs.Tracer, seed int64) error {
	rt, err := serve.NewRouter(serve.RouterConfig{
		Peers: c.peers, Replicas: serveReplica,
		Dataset: "ds000", B: serveB, Metric: "abs",
		Seed: seed, Tracer: tracer,
	})
	if err != nil {
		return err
	}
	f, err := startFront(rt)
	if err != nil {
		rt.Close()
		return err
	}
	c.router, c.front = rt, f
	return nil
}

func (c *cluster) stopRouter() {
	if c.front != nil {
		c.front.close()
		c.front = nil
	}
	if c.router != nil {
		c.router.Close()
		c.router = nil
	}
}

func (c *cluster) close() {
	c.stopRouter()
	for _, n := range c.nodes {
		n.Close()
	}
	c.nodeWG.Wait()
	c.nodes = nil
}

func get(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// queryOp returns the generator's operation: send query k to base and
// check the answer, recording any wrong answer in r.
func queryOp(client *http.Client, base string, set *shardSet, seed int64, r *report, mu *sync.Mutex, tracer *obs.Tracer) func(int) bool {
	return func(k int) bool {
		q := set.query(seed, k)
		span := tracer.Start(spanQuery)
		span.SetInt("query_id", int64(k))
		code, body, err := get(client, base+q.path(set))
		span.End()
		if err != nil || code != http.StatusOK {
			return false
		}
		if msg := checkAnswer(set.evs[q.shard], q, body); msg != "" {
			mu.Lock()
			r.wrong = append(r.wrong, fmt.Sprintf("%s: %s", set.keys[q.shard].Dataset, msg))
			mu.Unlock()
			return false
		}
		return true
	}
}

var serveFailCounters = []string{
	"serve_forward_errors", "serve_failover_total", "serve_route_unavailable",
	"serve_shard_shed_total", "serve_rejected_total",
}

func runServe(o *opts) (*report, error) {
	set, err := makeShards(filepath.Join(o.dir, "shards"), o.seed)
	if err != nil {
		return nil, err
	}
	store := &timedStore{inner: serve.DirStore{Dir: set.dir}}
	workers := genWorkers()
	client := newClient(workers)
	defer client.CloseIdleConnections()

	var setups []float64
	var c *cluster
	for i := 0; i < serveSetups; i++ {
		if c != nil {
			c.close()
			client.CloseIdleConnections()
		}
		runtime.GC() // start each set-up from the same heap state
		t := time.Now()
		c, err = startCluster(store, set, client, o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer func() { c.close() }()

	r := newReport()
	var mu sync.Mutex
	total := time.Duration(o.seconds * float64(time.Second))
	fixedDur := total * 3 / 10
	if o.traced {
		fixedDur = total / 2
	}
	ctr := readCounters(append(serveFailCounters, "serve_shard_cache_hits", "serve_shard_cache_misses",
		"serve_shard_cache_evictions", "serve_shard_stray_fills")...)
	loads0 := store.loads.len()
	gc0 := readGC()
	alloc0 := heapAllocBytes()
	mem := startMemPeak()
	cpu0 := cpuTime()
	fixed := openLoop(serveRate, fixedDur, workers, queryOp(client, c.front.url, set, o.seed, r, &mu, nil))
	cpuPerQuery := ms(cpuTime()-cpu0) / float64(fixed.sent)
	allocPerQuery := float64(heapAllocBytes()-alloc0) / float64(fixed.sent)
	lat := fixed.lat.sorted()
	r.attempted += int64(fixed.sent)
	r.failed += fixed.failed.Load()

	var qpsAtSLO float64
	var rungs int
	exhausted := false // the ladder ran out of time before a rung failed
	var traced *loadRun
	if o.traced {
		// Second half: the same load through a traced router, with a
		// benchmark span per query.
		bench, routes := obs.NewTracer(), obs.NewTracer()
		c.stopRouter()
		if err := c.startRouter(routes, o.seed); err != nil {
			return nil, err
		}
		traced = openLoop(serveRate, total-fixedDur, workers, queryOp(client, c.front.url, set, o.seed, r, &mu, bench))
		r.attempted += int64(traced.sent)
		r.failed += traced.failed.Load()
		if err := writeTrace(bench, o.traces, fmt.Sprintf("serve-zipf-seed%d-queries.json", o.seed)); err != nil {
			return nil, err
		}
		if err := writeTrace(routes, o.traces, fmt.Sprintf("serve-zipf-seed%d-router.json", o.seed)); err != nil {
			return nil, err
		}
	} else {
		// Each rung sends enough queries for a p99 with ten beyond it; the
		// ladder climbs until a rung fails or the run's time is spent.
		for rate, left := ladderFrom, total-fixedDur; ; rate *= ladderStep {
			rungDur := time.Duration(ladderQueries / rate * float64(time.Second))
			if rungDur > left {
				exhausted = true
				break
			}
			left -= rungDur
			run := openLoop(rate, rungDur, workers, queryOp(client, c.front.url, set, o.seed, r, &mu, nil))
			r.attempted += int64(run.sent)
			r.failed += run.failed.Load()
			rungs++
			p, _, ok := tail(run.lat.sorted(), 0.99)
			if !ok || run.failed.Load() > 0 || p > serveSLOms || run.backlogGrew(ladderLagMs) {
				break
			}
			qpsAtSLO = rate
		}
	}
	peak := mem.stop()

	r.gated["setup_s"] = medianOf(setups)
	r.gated["op_p50_ms"] = median(lat)
	r.gated["peak_rss_mb"] = peak
	r.fig("setup_s", "s", medianOf(setups), fmt.Sprintf("median of %d cluster starts", len(setups)))
	r.fig("query_cpu_ms", "ms", cpuPerQuery, "CPU of the whole process (client, router, nodes, checker) per query at the fixed rate")
	r.fig("peak_rss_mb", "MB", peak, "whole benchmark process, timed phase")
	tailFig(r, "query", lat, fmt.Sprintf("%d queries at %g q/s", fixed.sent, serveRate))
	if !o.traced {
		note := fmt.Sprintf("highest passing rung of %d, x%g steps from %g q/s, p99 <= %g ms", rungs, ladderStep, ladderFrom, serveSLOms)
		if exhausted {
			note = "a lower bound: the run's time ran out before a rung failed; " + note
		}
		if qpsAtSLO == 0 {
			r.na("qps_at_slo", "1/s", "the first rung failed: "+note)
		} else {
			r.fig("qps_at_slo", "1/s", qpsAtSLO, note)
		}
	}

	if o.traced {
		l := r.layers
		gc0.since(l)
		l["gen.lag_ms_p99"] = fixed.lagTail()
		hits, misses := ctr.delta("serve_shard_cache_hits"), ctr.delta("serve_shard_cache_misses")
		l["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
		l["serve.cache_evictions"] = ctr.delta("serve_shard_cache_evictions")
		l["serve.stray_fills"] = ctr.delta("serve_shard_stray_fills")
		for _, n := range serveFailCounters {
			l["serve.failed_forwards"] += ctr.delta(n)
		}
		loads := store.loads.sortedFrom(loads0)
		l["serve.store_loads"] = float64(len(loads))
		l["serve.store_load_ms_p50"] = median(loads)
		l["serve.store_load_ms_p99"], _, _ = tail(loads, 0.99)
		l["serve.alloc_kb_per_query"] = allocPerQuery / 1e3
		l["trace.overhead_ratio"] = ratio(median(traced.lat.sorted()), median(lat))
		if err := directLayers(l, set, o.seed, fixed.sent); err != nil {
			return nil, err
		}
		l["serve.hop_ms_p50"] = median(lat) - l["serve.direct_ms_p50"]
	}
	return r, nil
}

// directLayers times the query mix below the router: each query through
// an in-process serve.Server with no hops, and the synopsis layer's
// evaluator and decoder called directly.
func directLayers(l map[string]float64, set *shardSet, seed int64, n int) error {
	servers := make([]*serve.Server, len(set.shards))
	for i, sh := range set.shards {
		srv, err := serve.New(sh.Syn, sh.MaxAbs)
		if err != nil {
			return err
		}
		servers[i] = srv
	}
	var direct, point, rng, decode samples
	for k := 0; k < n; k++ {
		q := set.query(seed, k)
		req := httptest.NewRequest(http.MethodGet, q.path(set), nil)
		rec := httptest.NewRecorder()
		t := time.Now()
		servers[q.shard].ServeHTTP(rec, req)
		direct.addDur(time.Since(t))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("direct query %s: status %d", q.path(set), rec.Code)
		}
		ev := set.evs[q.shard]
		t = time.Now()
		if q.point {
			ev.Point(q.i)
			point.add(float64(time.Since(t)) / 1e3)
		} else {
			ev.RangeSum(q.lo, q.hi)
			rng.add(float64(time.Since(t)) / 1e3)
		}
	}
	for rep := 0; rep < 10; rep++ {
		for _, b := range set.enc {
			t := time.Now()
			if _, err := synopsis.Read(bytes.NewReader(b)); err != nil {
				return err
			}
			decode.add(float64(time.Since(t)) / 1e3)
		}
	}
	d := direct.sorted()
	l["serve.direct_ms_p50"] = median(d)
	l["serve.direct_ms_p99"], _, _ = tail(d, 0.99)
	l["synopsis.point_us_p50"] = median(point.sorted())
	l["synopsis.range_us_p50"] = median(rng.sorted())
	l["synopsis.decode_us_p50"] = median(decode.sorted())
	return nil
}
