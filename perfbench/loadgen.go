package main

import (
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// genWorkers is the generator's goroutine and connection cap: the box's
// CPU count, so the generator cannot outnumber the cores it shares with
// the program.
func genWorkers() int { return runtime.NumCPU() }

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// loadRun is what one open-loop run measured.
type loadRun struct {
	rate    float64
	lat     samples // ms, from when each request was due to its answer
	lag     []float64
	sent    int
	failed  atomic.Int64
	elapsed time.Duration
}

// openLoop issues op(k) for k = 0, 1, ... on a fixed schedule — request k
// is due at k/rate seconds — for dur, from `workers` goroutines. It is an
// open loop: a slow answer delays the requests queued behind it, and
// because each is timed from when it was due, that wait is counted. lag
// records how late the generator sent each request. op reports whether
// the request succeeded with a correct answer.
func openLoop(rate float64, dur time.Duration, workers int, op func(k int) bool) *loadRun {
	total := int(rate * dur.Seconds())
	if total < 1 {
		total = 1
	}
	r := &loadRun{rate: rate, lag: make([]float64, total), sent: total}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= total {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r.lag[k] = ms(time.Since(due))
				ok := op(k)
				r.lat.addDur(time.Since(due))
				if !ok {
					r.failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	return r
}

// lagTail is the generator's lateness at the tail, in ms.
func (r *loadRun) lagTail() float64 {
	var s samples
	s.v = r.lag
	v, _, ok := tail(s.sorted(), 0.99)
	if !ok {
		return medianOf(r.lag)
	}
	return v
}

// backlogGrew reports whether the generator fell steadily behind: the
// median lateness over the run's last tenth exceeds limit.
func (r *loadRun) backlogGrew(limit float64) bool {
	n := len(r.lag) / 10
	if n == 0 {
		n = len(r.lag)
	}
	return medianOf(r.lag[len(r.lag)-n:]) > limit
}
