package obs

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestSpanRecording(t *testing.T) {
	tr := NewTracer(8)
	tr.Begin("t1")
	ctx := ContextWithTrace(context.Background(), tr, "t1")
	sp := StartSpan(ctx, "work").Attr("k", "v")
	time.Sleep(time.Millisecond)
	sp.End()

	view, ok := tr.Get("t1")
	if !ok {
		t.Fatal("trace t1 not found")
	}
	if len(view.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(view.Spans))
	}
	got := view.Spans[0]
	if got.Name != "work" || got.Attrs["k"] != "v" {
		t.Errorf("span = %+v", got)
	}
	if got.DurationMS <= 0 {
		t.Errorf("duration = %v, want > 0", got.DurationMS)
	}
	if view.DurationMS < got.DurationMS {
		t.Errorf("trace duration %v < span duration %v", view.DurationMS, got.DurationMS)
	}
}

func TestSpanWithoutTraceIsNoop(t *testing.T) {
	// No trace in ctx: nil handle, all methods safe.
	sp := StartSpan(context.Background(), "orphan")
	sp.Attr("a", "b").End()

	// Trace ID set but never begun on the tracer: also a no-op.
	tr := NewTracer(2)
	ctx := ContextWithTrace(context.Background(), tr, "never-begun")
	StartSpan(ctx, "orphan").End()
	if n := tr.Len(); n != 0 {
		t.Errorf("tracer recorded %d traces, want 0", n)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Begin(fmt.Sprintf("t%d", i))
	}
	if tr.Len() != 3 {
		t.Fatalf("retained = %d, want 3", tr.Len())
	}
	if _, ok := tr.Get("t0"); ok {
		t.Error("oldest trace t0 not evicted")
	}
	if _, ok := tr.Get("t4"); !ok {
		t.Error("newest trace t4 missing")
	}
	sums := tr.Summaries()
	if len(sums) != 3 || sums[0].ID != "t4" || sums[2].ID != "t2" {
		t.Errorf("summaries = %+v, want newest-first t4..t2", sums)
	}
}

func TestSpanCapBoundsTrace(t *testing.T) {
	tr := NewTracer(1)
	tr.Begin("big")
	ctx := ContextWithTrace(context.Background(), tr, "big")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		StartSpan(ctx, "s").End()
	}
	view, _ := tr.Get("big")
	if len(view.Spans) != maxSpansPerTrace {
		t.Errorf("spans = %d, want cap %d", len(view.Spans), maxSpansPerTrace)
	}
	if view.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", view.Dropped)
	}
}

func TestTraceIDValidation(t *testing.T) {
	for _, ok := range []string{"abc", "A-1_b.c", NewTraceID()} {
		if !ValidTraceID(ok) {
			t.Errorf("ValidTraceID(%q) = false, want true", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "has space", "new\nline", "quote\"", string(long)} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true, want false", bad)
		}
	}
}

func TestSpanParentLinks(t *testing.T) {
	tr := NewTracer(4)
	tr.Begin("t")
	ctx := ContextWithTrace(context.Background(), tr, "t")

	pctx, parent := StartSpanCtx(ctx, "parent")
	if parent.ID() == "" {
		t.Fatal("parent span has no ID")
	}
	if got := SpanID(pctx); got != parent.ID() {
		t.Errorf("SpanID(pctx) = %q, want %q", got, parent.ID())
	}
	child := StartSpan(pctx, "child")
	child.End()
	sibling := StartSpan(ctx, "sibling") // original ctx: no parent
	sibling.End()
	parent.End()

	view, _ := tr.Get("t")
	byName := map[string]Span{}
	for _, sp := range view.Spans {
		byName[sp.Name] = sp
	}
	if byName["child"].ParentID != parent.ID() {
		t.Errorf("child parent = %q, want %q", byName["child"].ParentID, parent.ID())
	}
	if byName["sibling"].ParentID != "" {
		t.Errorf("sibling parent = %q, want root", byName["sibling"].ParentID)
	}
	if byName["parent"].SpanID == "" || byName["parent"].ParentID != "" {
		t.Errorf("parent span = %+v, want root with ID", byName["parent"])
	}
}

func TestRemoteParentAdopted(t *testing.T) {
	tr := NewTracer(4)
	tr.Begin("t")
	ctx := ContextWithRemoteParent(context.Background(), tr, "t", "00000000deadbeef")
	if got := SpanID(ctx); got != "00000000deadbeef" {
		t.Fatalf("SpanID = %q, want remote parent", got)
	}
	StartSpan(ctx, "local").End()
	view, _ := tr.Get("t")
	if view.Spans[0].ParentID != "00000000deadbeef" {
		t.Errorf("ParentID = %q, want remote parent", view.Spans[0].ParentID)
	}
}

func TestSpanMarker(t *testing.T) {
	tr := NewTracer(4)
	tr.Begin("t")
	ctx := ContextWithTrace(context.Background(), tr, "t")
	StartSpan(ctx, "stolen").Mark(MarkerStolen).End()
	view, _ := tr.Get("t")
	if view.Spans[0].Marker != MarkerStolen {
		t.Errorf("marker = %q, want %q", view.Spans[0].Marker, MarkerStolen)
	}
	// Nil no-op span accepts Mark too.
	StartSpan(context.Background(), "x").Mark(MarkerRetry).End()
}

func TestSpanIDValidation(t *testing.T) {
	if !ValidSpanID(NewSpanID()) {
		t.Error("NewSpanID not valid")
	}
	for _, bad := range []string{"", "short", "00000000DEADBEEF", "0123456789abcdefff", "0123456789abcdeg"} {
		if ValidSpanID(bad) {
			t.Errorf("ValidSpanID(%q) = true, want false", bad)
		}
	}
}

func TestBeginIdempotentKeepsSpans(t *testing.T) {
	tr := NewTracer(4)
	tr.Begin("t")
	ctx := ContextWithTrace(context.Background(), tr, "t")
	StartSpan(ctx, "first").End()
	tr.Begin("t") // async job re-begins its request's trace
	StartSpan(ctx, "second").End()
	view, _ := tr.Get("t")
	if len(view.Spans) != 2 {
		t.Errorf("spans = %d, want 2 (Begin must not reset a live trace)", len(view.Spans))
	}
}

// TestActiveTraceSurvivesChurn: recording spans into a trace refreshes
// its eviction position, so a long-running traced operation outlives the
// probe/poll traffic that mints fresh traces around it. An idle trace at
// the same age is still evicted.
func TestActiveTraceSurvivesChurn(t *testing.T) {
	tr := NewTracer(3)
	tr.Begin("sweep")
	tr.Begin("idle")
	ctx := ContextWithTrace(context.Background(), tr, "sweep")
	for i := 0; i < 10; i++ {
		tr.Begin(fmt.Sprintf("noise%d", i))
		StartSpan(ctx, "shard").End() // touch: move sweep to the back
	}
	if _, ok := tr.Get("sweep"); !ok {
		t.Fatal("actively-traced sweep evicted by churn")
	}
	if _, ok := tr.Get("idle"); ok {
		t.Error("idle trace survived churn; eviction never happened")
	}
	if tr.Len() != 3 {
		t.Errorf("retained = %d, want 3", tr.Len())
	}
	view, _ := tr.Get("sweep")
	if len(view.Spans) != 10 {
		t.Errorf("sweep spans = %d, want 10", len(view.Spans))
	}
}
