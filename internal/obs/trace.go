package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"dlvp/internal/lru"
)

// DefaultTraceCapacity bounds the tracer ring when NewTracer is given a
// non-positive capacity.
const DefaultTraceCapacity = 256

// maxSpansPerTrace bounds one trace's span list so a pathological request
// (say, a full-pool experiment matrix) cannot grow memory without bound.
// Excess spans are counted but dropped.
const maxSpansPerTrace = 512

// Span is one timed region of a trace. SpanID/ParentID link spans into a
// tree that survives process boundaries: a span started under a context
// that adopted a remote parent (see ContextWithRemoteParent) carries the
// caller's span ID in ParentID, so the originating node can reassemble
// the full cross-daemon tree from each peer's local span list.
type Span struct {
	Name     string `json:"name"`
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	// Marker flags spans that explain why duplicate or repeated work
	// appears in a trace: "retry", "stolen".
	Marker     string            `json:"marker,omitempty"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Span markers recorded by the dispatch and matrix layers.
const (
	MarkerRetry  = "retry"  // a failed attempt triggered re-routing
	MarkerStolen = "stolen" // a shard executed away from its assigned target
)

// trace is one request/job's span collection.
type trace struct {
	mu      sync.Mutex
	id      string
	start   time.Time
	spans   []Span
	dropped int
}

// Tracer is a bounded ring of recent traces keyed by ID. Once the ring is
// full, beginning a new trace evicts the one least recently begun or
// recorded into.
type Tracer struct {
	traces *lru.Cache[*trace] // cost 1 each: the budget is the capacity
}

// NewTracer returns a tracer retaining up to capacity traces
// (<= 0 selects DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{traces: lru.New[*trace](int64(capacity))}
}

// Begin registers a trace ID so subsequent StartSpan calls under it are
// recorded. Beginning an already-live ID keeps its spans (an async job
// reuses its originating request's trace).
func (t *Tracer) Begin(id string) {
	if t == nil || id == "" {
		return
	}
	t.traces.Do(context.TODO(), id, func(context.Context) (*trace, int64, error) {
		return &trace{id: id, start: time.Now()}, 1, nil
	})
}

// lookup returns a retained trace without refreshing its eviction order:
// read-only queries (Get) must not keep a trace alive.
func (t *Tracer) lookup(id string) *trace {
	if t == nil || id == "" {
		return nil
	}
	tr, _ := t.traces.Peek(id)
	return tr
}

// active is lookup plus an eviction-order refresh: a trace still
// accumulating spans becomes the most recent. Without this the ring is
// FIFO by Begin time, and a minutes-long operation (a distributed sweep
// recording shard spans throughout) is evicted seconds after submission
// by probe and poll traffic minting fresh traces.
func (t *Tracer) active(id string) *trace {
	if t == nil || id == "" {
		return nil
	}
	tr, _ := t.traces.Get(id)
	return tr
}

// TraceView is the wire shape of one trace.
type TraceView struct {
	ID         string    `json:"id"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Dropped    int       `json:"dropped_spans,omitempty"`
	Spans      []Span    `json:"spans"`
}

// TraceSummary is the list shape of GET /v1/traces.
type TraceSummary struct {
	ID         string    `json:"id"`
	Start      time.Time `json:"start"`
	Spans      int       `json:"spans"`
	DurationMS float64   `json:"duration_ms"`
}

func (tr *trace) view() TraceView {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	v := TraceView{
		ID:      tr.id,
		Start:   tr.start,
		Dropped: tr.dropped,
		Spans:   append([]Span(nil), tr.spans...),
	}
	v.DurationMS = tr.durationMSLocked()
	return v
}

// durationMSLocked spans first start to latest end.
func (tr *trace) durationMSLocked() float64 {
	var end time.Time
	for i := range tr.spans {
		e := tr.spans[i].Start.Add(time.Duration(tr.spans[i].DurationMS * float64(time.Millisecond)))
		if e.After(end) {
			end = e
		}
	}
	if end.IsZero() {
		return 0
	}
	return float64(end.Sub(tr.start)) / float64(time.Millisecond)
}

// Get returns the trace with the given ID, if still retained.
func (t *Tracer) Get(id string) (TraceView, bool) {
	tr := t.lookup(id)
	if tr == nil {
		return TraceView{}, false
	}
	return tr.view(), true
}

// Summaries lists retained traces, newest first.
func (t *Tracer) Summaries() []TraceSummary {
	if t == nil {
		return nil
	}
	var traces []*trace
	t.traces.Range(func(_ string, tr *trace) bool {
		traces = append(traces, tr)
		return true
	})
	out := make([]TraceSummary, 0, len(traces))
	for _, tr := range traces {
		tr.mu.Lock()
		out = append(out, TraceSummary{
			ID:         tr.id,
			Start:      tr.start,
			Spans:      len(tr.spans),
			DurationMS: tr.durationMSLocked(),
		})
		tr.mu.Unlock()
	}
	return out
}

// Len reports the number of retained traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.traces.Stats().Len
}

// --- context plumbing --------------------------------------------------------

type traceCtxKey struct{}

type traceRef struct {
	tracer *Tracer
	id     string
	// parent is the span ID new spans under this context attach to — the
	// "current span". Empty for root-level spans. It crosses process
	// boundaries via traceparent headers (see propagate.go).
	parent string
}

// ContextWithTrace attaches a tracer and trace ID to ctx; StartSpan calls
// under the returned context record into that trace.
func ContextWithTrace(ctx context.Context, t *Tracer, id string) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, traceRef{tracer: t, id: id})
}

// ContextWithRemoteParent is ContextWithTrace for a hop that arrived with
// trace context: spans started under the returned context carry parentSpan
// in ParentID, linking this process's subtree under the caller's span. An
// empty parentSpan degrades to ContextWithTrace.
func ContextWithRemoteParent(ctx context.Context, t *Tracer, id, parentSpan string) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, traceRef{tracer: t, id: id, parent: parentSpan})
}

// TraceID returns the trace ID carried by ctx ("" if none).
func TraceID(ctx context.Context) string {
	if ref, ok := ctx.Value(traceCtxKey{}).(traceRef); ok {
		return ref.id
	}
	return ""
}

// SpanID returns the current span ID carried by ctx ("" if none) — the
// span a new child started under ctx would attach to, and the parent ID
// an outbound hop should propagate.
func SpanID(ctx context.Context) string {
	if ref, ok := ctx.Value(traceCtxKey{}).(traceRef); ok {
		return ref.parent
	}
	return ""
}

// NewTraceID returns a fresh 16-hex-char random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand does not fail on supported platforms; a time-derived
		// fallback beats crashing the daemon.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000")))
	}
	return hex.EncodeToString(b[:])
}

// NewSpanID returns a fresh 16-hex-char random span ID. Span IDs only
// need to be unique within one trace, so the 64-bit space is ample.
func NewSpanID() string { return NewTraceID() }

// ValidSpanID reports whether a propagated span ID is safe to adopt as a
// remote parent link: exactly 16 lowercase-hex characters, the shape
// NewSpanID produces (and what the traceparent wire format requires —
// span IDs must be dash-free so the trace ID may contain dashes).
func ValidSpanID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ValidTraceID reports whether a caller-supplied X-Request-ID is safe to
// adopt: 1-64 characters from [A-Za-z0-9._-].
func ValidTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ActiveSpan is an in-progress span started by StartSpan. The nil
// ActiveSpan (returned when ctx carries no live trace) is a valid no-op.
type ActiveSpan struct {
	tr     *trace
	name   string
	id     string
	parent string
	marker string
	start  time.Time
	attrs  map[string]string
}

// StartSpan begins a span under ctx's trace. It returns nil — a no-op
// handle — when ctx has no trace, the tracer is nil, or the trace has been
// evicted, so instrumentation points cost one context lookup when tracing
// is off. The span's parent is ctx's current span (see StartSpanCtx).
func StartSpan(ctx context.Context, name string) *ActiveSpan {
	ref, ok := ctx.Value(traceCtxKey{}).(traceRef)
	if !ok {
		return nil
	}
	tr := ref.tracer.active(ref.id)
	if tr == nil {
		return nil
	}
	return &ActiveSpan{tr: tr, name: name, id: NewSpanID(), parent: ref.parent, start: time.Now()}
}

// StartSpanCtx begins a span like StartSpan and additionally returns a
// context whose current span is the new one, so spans started beneath it —
// in this process or, via traceparent propagation, on a peer — become its
// children. When ctx has no live trace the original ctx and a nil no-op
// span come back.
func StartSpanCtx(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	sp := StartSpan(ctx, name)
	if sp == nil {
		return ctx, nil
	}
	ref := ctx.Value(traceCtxKey{}).(traceRef)
	ref.parent = sp.id
	return context.WithValue(ctx, traceCtxKey{}, ref), sp
}

// ID returns the span's ID ("" for the nil no-op span).
func (s *ActiveSpan) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Attr attaches a key/value attribute and returns the span for chaining.
func (s *ActiveSpan) Attr(k, v string) *ActiveSpan {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
	return s
}

// Mark flags the span with one of the Marker* constants and returns it
// for chaining.
func (s *ActiveSpan) Mark(marker string) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.marker = marker
	return s
}

// End records the span into its trace.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	sp := Span{
		Name:       s.name,
		SpanID:     s.id,
		ParentID:   s.parent,
		Marker:     s.marker,
		Start:      s.start,
		DurationMS: float64(time.Since(s.start)) / float64(time.Millisecond),
		Attrs:      s.attrs,
	}
	s.tr.mu.Lock()
	if len(s.tr.spans) >= maxSpansPerTrace {
		s.tr.dropped++
	} else {
		s.tr.spans = append(s.tr.spans, sp)
	}
	s.tr.mu.Unlock()
}
