package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 from 50 samples is one sample, not a percentile.
const minBeyond = 10

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// samples is a concurrency-safe list of measurements in one unit.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

// sorted returns a sorted copy of the samples.
func (s *samples) sorted() []float64 { return s.sortedFrom(0) }

// sortedFrom returns a sorted copy of the samples added after the first i.
func (s *samples) sortedFrom(i int) []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v[i:]...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rank returns the nearest-rank percentile q of sorted values.
func rank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond is how many of n samples lie above the nearest-rank percentile q.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median returns the median of sorted values (0 when empty).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// tail returns the highest percentile no higher than want that has at
// least minBeyond samples above it, with the level used. ok is false when
// not even the median qualifies.
func tail(sorted []float64, want float64) (v, level float64, ok bool) {
	for _, q := range tailLevels {
		if q > want {
			continue
		}
		if beyond(len(sorted), q) >= minBeyond {
			return rank(sorted, q), q, true
		}
	}
	return 0, 0, false
}

// medianOf is median over an unsorted slice.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s)
}

// finite reports whether v can be printed as a JSON number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
