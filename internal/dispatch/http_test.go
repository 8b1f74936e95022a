package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dlvp/internal/metrics"
	"dlvp/internal/obs"
)

// TestHTTPBackendRoundTrip: the wire request carries the forwarded marker
// and the full config, and the peer's stats decode back out.
func TestHTTPBackendRoundTrip(t *testing.T) {
	job := baselineJob(1234)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/runs" {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
		}
		if r.Header.Get(ForwardedHeader) == "" {
			t.Error("forwarded marker missing: peers would re-dispatch in a loop")
		}
		var req wireRunRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode: %v", err)
		}
		if req.Workload != job.Workload || req.Instrs != job.Instrs || req.Config == nil {
			t.Errorf("wire request incomplete: %+v", req)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"cached": true,
			"stats":  metrics.RunStats{Workload: req.Workload, Instructions: req.Instrs},
		})
	}))
	defer ts.Close()

	b, err := NewHTTPBackend(ts.URL, HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, cached, err := b.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; !cached || st.Instructions != job.Instrs || st.Workload != job.Workload {
		t.Errorf("round trip lost data: cached=%v stats=%+v", cached, st)
	}
}

// TestHTTPBackendForwardsRequestID: regression test — a run forwarded to
// a peer must carry the originating request ID and a traceparent linking
// the peer's spans under the caller's current span, so the remote
// access-log line and job record join the caller's trace instead of
// minting a fresh unlinkable ID.
func TestHTTPBackendForwardsRequestID(t *testing.T) {
	type seen struct{ reqID, traceparent string }
	got := make(chan seen, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- seen{r.Header.Get("X-Request-ID"), r.Header.Get(obs.TraceParentHeader)}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"stats": metrics.RunStats{}})
	}))
	defer ts.Close()
	b, err := NewHTTPBackend(ts.URL, HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewTracer(4)
	tracer.Begin("req-42")
	ctx := obs.ContextWithTrace(context.Background(), tracer, "req-42")
	ctx, sp := obs.StartSpanCtx(ctx, "dispatch.attempt")
	if _, _, err := b.RunResult(ctx, baselineJob(1)); err != nil {
		t.Fatal(err)
	}
	s := <-got
	if s.reqID != "req-42" {
		t.Errorf("X-Request-ID = %q, want the originating trace ID", s.reqID)
	}
	wantTP := obs.FormatTraceParent("req-42", sp.ID())
	if s.traceparent != wantTP {
		t.Errorf("traceparent = %q, want %q", s.traceparent, wantTP)
	}
	sp.End()
}

// TestHTTPBackendNoTraceNoHeaders: without a trace in ctx no trace headers
// leak, and an invalid trace ID is never forwarded.
func TestHTTPBackendNoTraceNoHeaders(t *testing.T) {
	got := make(chan http.Header, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- r.Header.Clone()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"stats": metrics.RunStats{}})
	}))
	defer ts.Close()
	b, err := NewHTTPBackend(ts.URL, HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := b.RunResult(context.Background(), baselineJob(1)); err != nil {
		t.Fatal(err)
	}
	h := <-got
	if h.Get("X-Request-ID") != "" || h.Get(obs.TraceParentHeader) != "" {
		t.Errorf("trace headers sent without a trace: %v", h)
	}

	// A trace ID that fails ValidTraceID (e.g. adversarial header
	// injection via context) must not be forwarded.
	tracer := obs.NewTracer(4)
	bad := "evil\r\nX-Injected: 1"
	tracer.Begin(bad)
	ctx := obs.ContextWithTrace(context.Background(), tracer, bad)
	if _, _, err := b.RunResult(ctx, baselineJob(1)); err != nil {
		t.Fatal(err)
	}
	h = <-got
	if h.Get("X-Request-ID") != "" || h.Get(obs.TraceParentHeader) != "" {
		t.Errorf("invalid trace ID forwarded: %v", h)
	}
}

// TestHTTPBackendHealthProbeExcluded: health probes are background noise
// and must never carry trace headers, even when the probing context has a
// live trace.
func TestHTTPBackendHealthProbeExcluded(t *testing.T) {
	got := make(chan http.Header, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- r.Header.Clone()
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	b, err := NewHTTPBackend(ts.URL, HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(4)
	tracer.Begin("probe-trace")
	ctx := obs.ContextWithTrace(context.Background(), tracer, "probe-trace")
	if err := b.CheckHealth(ctx); err != nil {
		t.Fatal(err)
	}
	h := <-got
	if h.Get("X-Request-ID") != "" || h.Get(obs.TraceParentHeader) != "" {
		t.Errorf("health probe carried trace headers: %v", h)
	}
}

// TestHTTPBackendTypedErrors: peer failures decode into typed errors with
// the right retry classification.
func TestHTTPBackendTypedErrors(t *testing.T) {
	status := make(chan int, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code := <-status
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "synthetic failure"})
	}))
	defer ts.Close()
	b, err := NewHTTPBackend(ts.URL, HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		code      int
		retryable bool
	}{
		{http.StatusBadRequest, false},
		{http.StatusInternalServerError, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusGatewayTimeout, true},
		{http.StatusTooManyRequests, true},
	}
	for _, tc := range cases {
		status <- tc.code
		_, _, err := b.RunResult(context.Background(), baselineJob(1))
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("code %d: err = %v, want RemoteError", tc.code, err)
		}
		if re.Status != tc.code || re.Msg != "synthetic failure" {
			t.Errorf("code %d decoded as %+v", tc.code, re)
		}
		if got := isRetryable(context.Background(), err); got != tc.retryable {
			t.Errorf("code %d retryable = %v, want %v", tc.code, got, tc.retryable)
		}
	}

	// Connection-level failure: a closed listener is a retryable
	// TransportError.
	dead, err := NewHTTPBackend(ts.URL, HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	_, _, err = dead.RunResult(context.Background(), baselineJob(1))
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TransportError", err)
	}
	if !isRetryable(context.Background(), err) {
		t.Error("transport error must be retryable")
	}
	if err := dead.CheckHealth(context.Background()); err == nil {
		t.Error("health probe of a dead peer succeeded")
	}
}

// TestHTTPBackendHealth: 200 is healthy, 503 (draining) is not.
func TestHTTPBackendHealth(t *testing.T) {
	draining := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s", r.URL.Path)
		}
		if draining {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	b, err := NewHTTPBackend(ts.URL+"/", HTTPOptions{}) // trailing slash normalised
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckHealth(context.Background()); err != nil {
		t.Errorf("healthy peer probed unhealthy: %v", err)
	}
	draining = true
	err = b.CheckHealth(context.Background())
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable {
		t.Errorf("draining peer probe = %v, want 503 RemoteError", err)
	}
}

// TestHTTPBackendTimeout: a stalled peer trips the per-request timeout as
// a retryable transport error without waiting on the caller's context.
func TestHTTPBackendTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release) // LIFO: unblock the handler before ts.Close waits on it
	b, err := NewHTTPBackend(ts.URL, HTTPOptions{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = b.RunResult(context.Background(), baselineJob(1))
	if err == nil || time.Since(start) > 5*time.Second {
		t.Fatalf("per-request timeout did not fire: %v", err)
	}
	if !isRetryable(context.Background(), err) {
		t.Errorf("timeout should re-route: %v", err)
	}
}

// TestNewHTTPBackendValidation rejects malformed peer URLs.
func TestNewHTTPBackendValidation(t *testing.T) {
	for _, bad := range []string{"", "ftp://host", "host:8080", "http://"} {
		if _, err := NewHTTPBackend(bad, HTTPOptions{}); err == nil {
			t.Errorf("peer URL %q accepted", bad)
		}
	}
	b, err := NewHTTPBackend("http://10.1.2.3:9090/", HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "http://10.1.2.3:9090" {
		t.Errorf("name = %q", b.Name())
	}
}
