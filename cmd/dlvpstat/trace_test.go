package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dlvp/internal/obs"
)

func testAssembled() *traceDoc {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	local := []obs.Span{
		{Name: "http.request", SpanID: "aaaaaaaaaaaaaaaa", Start: t0, DurationMS: 100},
		{Name: "dispatch.route", SpanID: "bbbbbbbbbbbbbbbb", ParentID: "aaaaaaaaaaaaaaaa", Start: t0.Add(time.Millisecond), DurationMS: 98},
		{Name: "dispatch.attempt", SpanID: "cccccccccccccccc", ParentID: "bbbbbbbbbbbbbbbb", Start: t0.Add(2 * time.Millisecond), DurationMS: 95},
		{Name: "dispatch.retry", SpanID: "dddddddddddddddd", ParentID: "bbbbbbbbbbbbbbbb", Marker: obs.MarkerRetry, Start: t0.Add(50 * time.Millisecond)},
	}
	peer := []obs.Span{
		{Name: "http.request", SpanID: "eeeeeeeeeeeeeeee", ParentID: "cccccccccccccccc", Start: t0.Add(5 * time.Millisecond), DurationMS: 90},
		{Name: "runner.run", SpanID: "ffffffffffffffff", ParentID: "eeeeeeeeeeeeeeee", Start: t0.Add(6 * time.Millisecond), DurationMS: 88},
		{Name: "runner.queue", SpanID: "1111111111111111", ParentID: "ffffffffffffffff", Start: t0.Add(6 * time.Millisecond), DurationMS: 10},
		{Name: "runner.execute", SpanID: "2222222222222222", ParentID: "ffffffffffffffff", Start: t0.Add(16 * time.Millisecond), DurationMS: 78,
			Attrs: map[string]string{"workload": "linpack"}},
	}
	doc := &traceDoc{ID: "trace-1", Cluster: true, Instances: []string{"local", "http://peer:8080"}}
	doc.Assembled = obs.Assemble([]obs.InstanceSpans{
		{Instance: "local", Spans: local},
		{Instance: "http://peer:8080", Spans: peer},
	})
	return doc
}

// TestRenderTraceWaterfall: the waterfall nests the peer subtree under the
// dispatch attempt, shows markers, and splits exclusive time by segment.
func TestRenderTraceWaterfall(t *testing.T) {
	out := renderTrace(testAssembled())

	if !strings.Contains(out, "trace  trace-1: 8 spans across 2 instances") {
		t.Errorf("header wrong:\n%s", out)
	}
	for _, want := range []string{
		"[retry]",
		"runner.execute",
		"http://peer:8080",
		"linpack",
		"queue-wait",
		"sim",
		"network",
		"time split (exclusive):",
		"instances:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Depth: the peer's runner.execute sits four levels under the root
	// (route > attempt > http.request > runner.run > execute = indent 10).
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "runner.execute") && strings.HasPrefix(line, strings.Repeat("  ", 5)) {
			found = true
		}
	}
	if !found {
		t.Errorf("runner.execute not nested under the remote subtree:\n%s", out)
	}
	// Queue wait is exclusive: exactly the 10ms runner.queue span.
	if !strings.Contains(out, "queue-wait     10.00ms") {
		t.Errorf("queue-wait split wrong:\n%s", out)
	}
}

// TestDecodeTraceDocFallback: a plain single-node /v1/traces/{id} payload
// (flat span list, no tree) is assembled locally so saved traces render.
func TestDecodeTraceDocFallback(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	view := obs.TraceView{ID: "flat-1", Spans: []obs.Span{
		{Name: "http.request", SpanID: "aaaaaaaaaaaaaaaa", Start: t0, DurationMS: 5},
		{Name: "http.encode", SpanID: "bbbbbbbbbbbbbbbb", ParentID: "aaaaaaaaaaaaaaaa", Start: t0, DurationMS: 1},
	}}
	data, _ := json.Marshal(view)
	doc, err := decodeTraceDoc("test", data)
	if err != nil {
		t.Fatal(err)
	}
	if doc.ID != "flat-1" || doc.Spans != 2 || len(doc.Roots) != 1 {
		t.Fatalf("fallback decode: %+v", doc)
	}
	if doc.Roots[0].Children[0].Name != "http.encode" {
		t.Fatal("parent link lost in fallback assembly")
	}

	if _, err := decodeTraceDoc("bad", []byte(`{"nope":1}`)); err == nil {
		t.Fatal("garbage accepted as a trace payload")
	}
}
