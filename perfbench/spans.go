package main

import (
	"sync"
	"time"

	"dlvp/internal/obs"
)

// spans is the benchmark-side span recorder of a traced run: one span per
// call the benchmark makes into a layer, kept in memory and written out
// when the run ends. A nil *spans records nothing, so untraced units pay
// one pointer test per call.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

// span is one recorded layer call. Spans of one unit share Trace; Parent
// is the ID of the span that caused this one (0: a root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// start opens a span and returns its ID and the function that ends it.
func (s *spans) start(trace, name string, parent int) (int, func()) {
	if s == nil {
		return 0, func() {}
	}
	begin := time.Now()
	s.mu.Lock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartMS: float64(begin.Sub(s.epoch).Microseconds()) / 1e3})
	s.mu.Unlock()
	return id, func() {
		d := float64(time.Since(begin).Microseconds()) / 1e3
		s.mu.Lock()
		s.list[id-1].DurMS = d
		s.mu.Unlock()
	}
}

func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeJSON(path, s.list)
}

// foldedSpans are the program-side span names whose self time the traced
// run folds into per-layer rows.
var foldedSpans = []string{"runner.queue", "runner.execute", "dispatch.attempt", "matrix.shard"}

// foldSelfTimes adds each folded span's self time (its duration minus the
// part its children cover) in roots' trees to acc, as "<name>.self_ms"
// sums and "<name>.n" counts.
func foldSelfTimes(roots []*obs.TreeNode, acc map[string]float64) {
	var walk func(n *obs.TreeNode)
	walk = func(n *obs.TreeNode) {
		child := 0.0
		for _, c := range n.Children {
			child += c.DurationMS
			walk(c)
		}
		for _, name := range foldedSpans {
			if n.Name == name {
				acc[name+".self_ms"] += max(n.DurationMS-child, 0)
				acc[name+".n"]++
			}
		}
	}
	for _, r := range roots {
		walk(r)
	}
}

// addSelfTimes records the mean self time per occurrence of each folded
// span as a layer value (0 where the unit's traces hold none).
func addSelfTimes(acc map[string]float64, layers map[string]float64) {
	for _, name := range foldedSpans {
		layers["span."+name+".self_ms"] = mean(acc[name+".self_ms"], acc[name+".n"])
	}
}
