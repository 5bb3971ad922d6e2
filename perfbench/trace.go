package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dwmaxerr/internal/obs"
)

// Span names the benchmark itself opens around calls into a layer.
const (
	spanEngineRun = "bench:mr.Engine.Run"
	spanBuild     = "bench:build"
	spanQuery     = "bench:query"
)

// ispan is one recorded span with its interval, in microseconds from the
// start of the trace.
type ispan struct {
	name       string
	start, end float64
	children   []*ispan
}

// spanTree returns the tracer's spans with their intervals. obs.Span does
// not expose start times, so every span is tagged with its walk position
// and the tree is joined back onto the Chrome trace export, which does.
func spanTree(t *obs.Tracer) ([]*ispan, error) {
	var all []*obs.Span
	pos := map[*obs.Span]int{}
	for _, r := range t.Roots() {
		r.Walk(func(s *obs.Span) {
			s.SetInt("pb_id", int64(len(all)))
			pos[s] = len(all)
			all = append(all, s)
		})
	}
	var buf bytes.Buffer
	if err := t.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	nodes := make([]*ispan, len(all))
	for _, ev := range doc.TraceEvents {
		id, ok := ev.Args["pb_id"].(float64)
		if !ok || int(id) < 0 || int(id) >= len(nodes) {
			return nil, fmt.Errorf("trace event %q has no span id", ev.Name)
		}
		nodes[int(id)] = &ispan{name: ev.Name, start: ev.Ts, end: ev.Ts + ev.Dur}
	}
	for i, s := range all {
		if nodes[i] == nil {
			return nil, fmt.Errorf("span %q missing from the trace export", s.Name())
		}
		for _, c := range s.Children() {
			j, ok := pos[c]
			if !ok {
				continue // opened after the walk
			}
			nodes[i].children = append(nodes[i].children, nodes[j])
		}
	}
	var roots []*ispan
	for _, r := range t.Roots() {
		roots = append(roots, nodes[pos[r]])
	}
	return roots, nil
}

// self is the span's duration minus the part of its interval that its
// children cover (overlapping children count once).
func (s *ispan) self() float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range s.children {
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return (s.end - s.start) - covered
}

// walk visits s and its descendants depth-first; visit returning false
// skips the span's children.
func (s *ispan) walk(visit func(*ispan) bool) {
	if visit(s) {
		for _, c := range s.children {
			c.walk(visit)
		}
	}
}

// selfByName sums self time, in seconds, of every span whose name class
// (as classify returns it) is non-empty.
func selfByName(roots []*ispan, classify func(string) string) map[string]float64 {
	out := map[string]float64{}
	for _, r := range roots {
		r.walk(func(s *ispan) bool {
			if k := classify(s.name); k != "" {
				out[k] += s.self() / 1e6
			}
			return true
		})
	}
	return out
}

// writeTrace writes the tracer's spans as a Chrome trace file under dir.
func writeTrace(t *obs.Tracer, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return t.WriteChromeTraceFile(filepath.Join(dir, name))
}
