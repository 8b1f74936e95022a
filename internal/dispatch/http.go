package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/obs"
	"dlvp/internal/runner"
)

// ForwardedHeader marks a request as dispatcher-forwarded. A daemon that
// sees it executes the job on its local engine instead of re-dispatching,
// so a ring of peers can never forward a job in a loop.
const ForwardedHeader = "X-Dlvp-Forwarded"

// DefaultHTTPTimeout bounds one forwarded request when HTTPOptions.Timeout
// is zero. It matches the daemon's default synchronous request timeout.
const DefaultHTTPTimeout = 2 * time.Minute

// HTTPOptions parameterises an HTTPBackend.
type HTTPOptions struct {
	// Timeout bounds each forwarded request (0: DefaultHTTPTimeout).
	Timeout time.Duration
}

// HTTPBackend forwards jobs to a peer daemon over its /v1/runs endpoint.
// The full core configuration travels in the request body, so the peer
// computes the identical content address and repeated jobs hit its
// result cache.
type HTTPBackend struct {
	name      string
	runsURL   string
	healthURL string
	client    *http.Client
	timeout   time.Duration
}

// NewHTTPBackend returns a backend for the peer at rawURL (scheme + host,
// e.g. "http://10.0.0.2:8080"). The normalised scheme://host string is the
// backend's rendezvous name.
func NewHTTPBackend(rawURL string, opts HTTPOptions) (*HTTPBackend, error) {
	u, err := url.Parse(strings.TrimSuffix(rawURL, "/"))
	if err != nil {
		return nil, fmt.Errorf("dispatch: peer URL %q: %w", rawURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("dispatch: peer URL %q: scheme must be http or https", rawURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("dispatch: peer URL %q: missing host", rawURL)
	}
	base := u.Scheme + "://" + u.Host
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultHTTPTimeout
	}
	return &HTTPBackend{
		name:      base,
		runsURL:   base + "/v1/runs",
		healthURL: base + "/healthz",
		// One client per backend: every request to the peer shares its
		// keep-alive connections.
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        32,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		timeout: timeout,
	}, nil
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.name }

// wireRunRequest mirrors the server's /v1/runs request shape. The explicit
// config (rather than a scheme name) keeps ablated or otherwise customised
// configurations addressable across the wire.
type wireRunRequest struct {
	Workload string               `json:"workload"`
	Config   *config.Core         `json:"config"`
	Instrs   uint64               `json:"instrs"`
	Sampling *runner.SamplingSpec `json:"sampling,omitempty"`
}

// wireRunResponse decodes the fields of the server's run response the
// dispatcher needs.
type wireRunResponse struct {
	Cached  bool                `json:"cached"`
	Stats   metrics.RunStats    `json:"stats"`
	Sampled *runner.SampledInfo `json:"sampled,omitempty"`
}

type wireError struct {
	Error string `json:"error"`
}

// RunResult implements Backend by POSTing the job to the peer's /v1/runs.
// The peer's sampled provenance block (when the job sampled) rides back
// on the Result.
func (b *HTTPBackend) RunResult(ctx context.Context, job runner.Job) (runner.Result, bool, error) {
	var zero runner.Result
	body, err := json.Marshal(wireRunRequest{Workload: job.Workload, Config: &job.Config, Instrs: job.Instrs, Sampling: job.Sampling})
	if err != nil {
		return zero, false, fmt.Errorf("dispatch: encode job: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, b.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.runsURL, bytes.NewReader(body))
	if err != nil {
		return zero, false, fmt.Errorf("dispatch: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "1")
	// Propagate the originating trace so the peer's access-log line, job
	// record and spans join the caller's trace instead of minting a fresh
	// unlinkable ID. The traceparent header additionally carries the
	// current span ID, parenting the peer's subtree under this attempt.
	if id := obs.TraceID(ctx); obs.ValidTraceID(id) {
		req.Header.Set("X-Request-ID", id)
		if tp := obs.FormatTraceParent(id, obs.SpanID(ctx)); tp != "" {
			req.Header.Set(obs.TraceParentHeader, tp)
		}
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return zero, false, &TransportError{Backend: b.name, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return zero, false, decodeRemoteError(b.name, resp)
	}
	var rr wireRunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return zero, false, &TransportError{Backend: b.name, Err: fmt.Errorf("decode run response: %w", err)}
	}
	return runner.Result{Stats: rr.Stats, Sampled: rr.Sampled}, rr.Cached, nil
}

// CheckHealth implements Backend by probing the peer's liveness endpoint.
// A draining peer answers 503 and is treated as unhealthy, so the
// dispatcher stops routing to it before it goes away. Probes deliberately
// carry no trace headers: they are background noise, not request work,
// and must never register traces on the peer.
func (b *HTTPBackend) CheckHealth(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.healthURL, nil)
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return &TransportError{Backend: b.name, Err: err}
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return &RemoteError{Backend: b.name, Status: resp.StatusCode, Msg: "health probe"}
	}
	return nil
}

// decodeRemoteError turns a non-200 peer response into a typed error,
// preferring the JSON error envelope and falling back to the raw body.
func decodeRemoteError(backend string, resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	msg := strings.TrimSpace(string(data))
	var we wireError
	if json.Unmarshal(data, &we) == nil && we.Error != "" {
		msg = we.Error
	}
	return &RemoteError{Backend: backend, Status: resp.StatusCode, Msg: msg}
}

// RemoteError is a peer's non-2xx response, decoded from its JSON error
// envelope when possible.
type RemoteError struct {
	Backend string
	Status  int
	Msg     string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("dispatch: backend %s: HTTP %d: %s", e.Backend, e.Status, e.Msg)
}

// Retryable reports whether another backend might succeed where this one
// failed: server-side failures and overload are retryable, a rejected
// request (4xx — e.g. an unknown workload) would fail everywhere.
func (e *RemoteError) Retryable() bool {
	return e.Status >= 500 || e.Status == http.StatusTooManyRequests
}

// TransportError is a connection-level failure (refused, reset, DNS,
// per-attempt timeout) reaching a peer. Always retryable: the job never
// reached a simulation engine.
type TransportError struct {
	Backend string
	Err     error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("dispatch: backend %s: %v", e.Backend, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// Retryable implements the dispatcher's retry classification.
func (e *TransportError) Retryable() bool { return true }

// retryable is the classification hook shared by the typed errors above.
type retryable interface{ Retryable() bool }

// isRetryable reports whether err is worth re-routing to another backend.
// A dead caller context is never retryable — the client is gone — and
// unclassified errors (unknown workloads, encode failures) are
// deterministic, so they would fail identically everywhere.
func isRetryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var r retryable
	if errors.As(err, &r) {
		return r.Retryable()
	}
	return false
}
