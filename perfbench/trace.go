package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: the benchmark opens a span before it calls a layer's public
// function and closes it when the call returns. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span and counter of a traced run in memory; they
// are aggregated into per-layer metrics and written out when the run
// ends. It is safe for concurrent use: spans open and close on the
// worker goroutines of the replayed pipelines.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	ops    int // traced ops finished
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

// begin opens a span under parent (-1 opens an op's root span) and
// returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add accumulates a counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// scope is a span handle that child calls nest under.
type scope struct {
	t      *tracer
	op, id int
}

// child opens a span named name under s.
func (s scope) child(name string) scope {
	return scope{t: s.t, op: s.op, id: s.t.begin(name, s.op, s.id)}
}

// done closes the span.
func (s scope) done() { s.t.end(s.id) }

// timed runs fn inside a child span named name.
func timed[T any](s scope, name string, fn func() T) T {
	c := s.child(name)
	defer c.done()
	return fn()
}

// layerTotals is the aggregate of a finished trace: inclusive and self
// time and call counts per span name.
type layerTotals struct {
	self    map[string]float64 // seconds of self time per span name
	total   map[string]float64 // seconds of inclusive time per span name
	calls   map[string]float64
	spans   int
	glueSec float64 // self time of spans that are benchmark orchestration
	allSec  float64 // self time of every span
}

// isGlue reports whether a span name marks benchmark orchestration (an
// op root, an experiment, or one system of a per-system fan-out) rather
// than a call into one of the program's layers.
func isGlue(name string) bool {
	return name == "op" || strings.HasPrefix(name, "experiment.") || strings.HasPrefix(name, "unit.")
}

// totals computes self times: a span's duration minus the part of its
// interval covered by the union of its children.
func (t *tracer) totals() layerTotals {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	lt := layerTotals{self: map[string]float64{}, total: map[string]float64{}, calls: map[string]float64{}, spans: len(spans)}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		var iv [][2]int64
		for _, c := range children[s.ID] {
			cs := spans[c]
			if cs.End < 0 {
				continue
			}
			iv = append(iv, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curLo, curHi int64
		curHi = -1
		for _, x := range iv {
			if x[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self := float64(dur-covered) / 1e9
		lt.self[s.Name] += self
		lt.total[s.Name] += float64(dur) / 1e9
		lt.calls[s.Name]++
		lt.allSec += self
		if isGlue(s.Name) {
			lt.glueSec += self
		}
	}
	return lt
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
