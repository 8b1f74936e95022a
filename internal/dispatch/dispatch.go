// Package dispatch scatters simulation jobs across a ring of backends —
// the in-process runner engine plus any number of peer daemons — and
// gathers their results. It is the layer that turns one dlvpd process
// into a cluster.
//
// Routing is cache-affine: each job's content address (runner.Job.Key) is
// rendezvous-hashed over the backend names, so identical jobs always land
// on the same peer and hit its content-addressed LRU result cache, the
// same way cache-level prediction steers a load to the level already
// holding its line. Around that core the dispatcher provides:
//
//   - active health checking with exponential backoff, automatic ejection
//     of failing peers and automatic reinstatement once they answer again;
//   - a per-peer in-flight limit with a bounded queue, so one slow peer
//     cannot absorb unbounded goroutines — excess work re-routes;
//   - retry with a budget: retryable failures (connection refused, 5xx,
//     per-attempt timeout) re-route to the next backend in the ring until
//     the budget is spent;
//   - a guaranteed local fallback: when every peer is ejected, saturated
//     or failing, the job runs on the local engine — a clustered daemon
//     never does worse than standalone mode.
package dispatch

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"dlvp/internal/metrics"
	"dlvp/internal/obs"
	"dlvp/internal/runner"
)

// DefaultHealthInterval is the active probe cadence when
// Options.HealthInterval is zero.
const DefaultHealthInterval = 3 * time.Second

const (
	// maxInFlight bounds concurrent requests per peer.
	maxInFlight = 32
	// maxQueue bounds the waiters queued behind a peer's in-flight limit
	// before further jobs re-route.
	maxQueue = 64
	// retryBudget is the maximum routed attempts per job, first try
	// included, before the dispatcher falls back to the local guarantee.
	retryBudget = 3
	// failThreshold is the consecutive-failure streak that ejects a peer.
	failThreshold = 2
	// backoffBase is the first re-probe delay of a failing peer; each
	// further failure doubles it up to backoffMax.
	backoffBase = 500 * time.Millisecond
	// backoffMax caps the doubling re-probe backoff of a failing peer.
	backoffMax = 30 * time.Second
	// probeTimeout bounds one health probe.
	probeTimeout = 2 * time.Second
)

// Options parameterises a Dispatcher.
type Options struct {
	// Local is the guaranteed-fallback backend (required). It participates
	// in rendezvous ranking like any peer but is never ejected and never
	// slot-limited — the runner engine bounds its own pool.
	Local Backend
	// Peers are the remote backends forming the rest of the ring.
	Peers []Backend
	// HealthInterval is the active probe cadence (0: DefaultHealthInterval).
	HealthInterval time.Duration
	// Obs, when non-nil, registers the dispatcher's per-backend counters
	// and histograms and enables dispatch.route/dispatch.attempt spans.
	Obs *obs.Observer
}

// instruments holds the dispatcher's telemetry handles (nil when built
// without an Observer).
type instruments struct {
	attempts *obs.CounterVec   // backend, outcome: ok|error|cancelled|saturated
	latency  *obs.HistogramVec // backend
}

// Dispatcher routes jobs across the backend ring. Construct with New;
// Close stops the health loop.
type Dispatcher struct {
	opts     Options
	local    *backendState
	states   []*backendState // local + peers, registration order
	inst     *instruments
	stop     chan struct{}
	stopOnce sync.Once
}

// New builds a dispatcher over the given backends and, when peers are
// present, starts the active health loop.
func New(opts Options) (*Dispatcher, error) {
	if opts.Local == nil {
		return nil, errors.New("dispatch: Options.Local is required")
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = DefaultHealthInterval
	}
	d := &Dispatcher{opts: opts, stop: make(chan struct{})}
	d.local = newBackendState(opts.Local, true, 0)
	d.states = append(d.states, d.local)
	seen := map[string]bool{d.local.name: true}
	for _, p := range opts.Peers {
		if p == nil {
			continue
		}
		if seen[p.Name()] {
			return nil, errors.New("dispatch: duplicate backend name " + p.Name())
		}
		seen[p.Name()] = true
		d.states = append(d.states, newBackendState(p, false, maxInFlight))
	}
	if opts.Obs != nil {
		reg := opts.Obs.Metrics
		d.inst = &instruments{
			attempts: reg.Counter("dlvpd_dispatch_attempts_total",
				"Dispatch attempts by backend and outcome (ok, error, cancelled, saturated).",
				"backend", "outcome"),
			latency: reg.Histogram("dlvpd_dispatch_latency_seconds",
				"Per-attempt latency by backend.", nil, "backend"),
		}
	}
	if len(d.states) > 1 {
		go d.healthLoop()
	}
	return d, nil
}

// Close stops the health loop. In-flight jobs are unaffected.
func (d *Dispatcher) Close() { d.stopOnce.Do(func() { close(d.stop) }) }

// Peers reports the number of remote backends in the ring.
func (d *Dispatcher) Peers() int { return len(d.states) - 1 }

// count records one attempt outcome on the labelled counter.
func (d *Dispatcher) count(bs *backendState, outcome string) {
	if d.inst != nil {
		d.inst.attempts.With(bs.name, outcome).Inc()
	}
}

// Run routes one job through the ring and blocks for its result. The
// boolean reports whether the result came from a cache (local or remote).
func (d *Dispatcher) Run(ctx context.Context, job runner.Job) (metrics.RunStats, bool, error) {
	res, cached, err := d.RunResult(ctx, job)
	return res.Stats, cached, err
}

// RunResult routes like Run but returns the full runner.Result, so
// sampled-run provenance survives the dispatch layer instead of being
// flattened to bare statistics.
//
// Routing is one sequential attempt loop over the rendezvous order. Each
// backend appears once in that order and the local fallback runs only
// when local was not tried, so one request feeds each backend's ejection
// state at most once.
func (d *Dispatcher) RunResult(ctx context.Context, job runner.Job) (runner.Result, bool, error) {
	var zero runner.Result
	key, err := job.Key()
	if err != nil {
		return zero, false, err
	}
	ctx, sp := obs.StartSpanCtx(ctx, "dispatch.route")
	sp.Attr("workload", job.Workload)

	var lastErr error
	attempts := 0
	localTried := false
	for _, bs := range rank(d.states, key) {
		if attempts >= retryBudget {
			break
		}
		if bs.isEjected() {
			continue
		}
		res, cached, err := d.attempt(ctx, bs, job)
		if errors.Is(err, ErrSaturated) {
			// Saturation is a routing event, not an attempt: re-route
			// without consuming budget.
			lastErr = err
			continue
		}
		attempts++
		localTried = localTried || bs.local
		if err == nil {
			sp.Attr("backend", bs.name).Attr("attempts", strconv.Itoa(attempts)).End()
			return res, cached, nil
		}
		if !isRetryable(ctx, err) {
			sp.Attr("backend", bs.name).Attr("outcome", "error").Attr("error", err.Error()).End()
			return zero, false, err
		}
		// Marker span: this attempt failed retryably and the loop will
		// re-route, so the trace shows why the same job appears twice.
		obs.StartSpan(ctx, "dispatch.retry").Mark(obs.MarkerRetry).
			Attr("backend", bs.name).Attr("error", err.Error()).End()
		lastErr = err
	}

	// The local guarantee: whatever happened above — budget exhausted,
	// every peer ejected or saturated — the job still runs in-process
	// unless local execution itself was already attempted and failed.
	if !localTried {
		res, cached, err := d.attempt(ctx, d.local, job)
		if err == nil {
			sp.Attr("backend", d.local.name).Attr("attempts", strconv.Itoa(attempts+1)).Attr("fallback", "local").End()
			return res, cached, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("dispatch: no backend available")
	}
	sp.Attr("outcome", "error").Attr("error", lastErr.Error()).End()
	return zero, false, lastErr
}

// attempt runs the job once on bs through its in-flight slot. A full slot
// queue fails fast with ErrSaturated, accounted on bs.
func (d *Dispatcher) attempt(ctx context.Context, bs *backendState, job runner.Job) (runner.Result, bool, error) {
	release, err := bs.acquire(ctx, maxQueue)
	if err != nil {
		if errors.Is(err, ErrSaturated) {
			bs.saturated.Add(1)
			d.count(bs, "saturated")
		}
		return runner.Result{}, false, err
	}
	defer release()

	bs.attempts.Add(1)
	bs.inflight.Add(1)
	// The attempt span becomes the current span of the backend call's
	// context: an HTTP backend propagates its ID in the traceparent header,
	// so the peer's entire server-side subtree hangs under this attempt in
	// the assembled cluster trace; the local backend's runner spans nest
	// under it directly.
	sctx, sp := obs.StartSpanCtx(ctx, "dispatch.attempt")
	sp.Attr("backend", bs.name).Attr("workload", job.Workload)
	start := time.Now()
	res, cached, err := bs.b.RunResult(sctx, job)
	elapsed := time.Since(start)
	bs.inflight.Add(-1)
	if d.inst != nil {
		d.inst.latency.With(bs.name).Observe(elapsed.Seconds())
	}
	switch {
	case err == nil:
		bs.successes.Add(1)
		d.count(bs, "ok")
		d.noteSuccess(bs)
		sp.Attr("outcome", "ok").Attr("cached", strconv.FormatBool(cached)).End()
	case ctx.Err() != nil:
		// The caller went away: not a health signal, not a backend failure.
		bs.cancelled.Add(1)
		d.count(bs, "cancelled")
		sp.Attr("outcome", "cancelled").End()
	default:
		bs.failures.Add(1)
		d.count(bs, "error")
		if isRetryable(ctx, err) {
			d.noteFailure(bs, err)
		}
		sp.Attr("outcome", "error").Attr("error", err.Error()).End()
	}
	return res, cached, err
}

// BackendStatus is one ring member's state as reported by Status (and by
// the daemon's GET /v1/cluster).
type BackendStatus struct {
	Name                string  `json:"name"`
	Kind                string  `json:"kind"` // "local" | "peer"
	Healthy             bool    `json:"healthy"`
	Ejected             bool    `json:"ejected"`
	ConsecutiveFailures int     `json:"consecutive_failures"`
	LastError           string  `json:"last_error,omitempty"`
	InFlight            int64   `json:"in_flight"`
	Waiting             int64   `json:"waiting"`
	Attempts            int64   `json:"attempts"`
	Successes           int64   `json:"successes"`
	Failures            int64   `json:"failures"`
	Cancelled           int64   `json:"cancelled"`
	Saturated           int64   `json:"saturated"`
	NextProbeInMS       float64 `json:"next_probe_in_ms,omitempty"`
}

// Status is the dispatcher's cluster view.
type Status struct {
	Backends     []BackendStatus `json:"backends"`
	Peers        int             `json:"peers"`
	HealthyPeers int             `json:"healthy_peers"`
	RetryBudget  int             `json:"retry_budget"`
}

// Status snapshots every backend's health and accounting state.
func (d *Dispatcher) Status() Status {
	st := Status{RetryBudget: retryBudget}
	now := time.Now()
	for _, bs := range d.states {
		b := BackendStatus{
			Name:      bs.name,
			Kind:      "peer",
			InFlight:  bs.inflight.Load(),
			Waiting:   bs.waiting.Load(),
			Attempts:  bs.attempts.Load(),
			Successes: bs.successes.Load(),
			Failures:  bs.failures.Load(),
			Cancelled: bs.cancelled.Load(),
			Saturated: bs.saturated.Load(),
		}
		if bs.local {
			b.Kind = "local"
		}
		bs.mu.Lock()
		b.Ejected = bs.ejected
		b.ConsecutiveFailures = bs.consecFails
		b.LastError = bs.lastErr
		if bs.ejected && !bs.nextProbe.IsZero() {
			if in := bs.nextProbe.Sub(now); in > 0 {
				b.NextProbeInMS = float64(in) / float64(time.Millisecond)
			}
		}
		bs.mu.Unlock()
		b.Healthy = !b.Ejected
		if !bs.local {
			st.Peers++
			if b.Healthy {
				st.HealthyPeers++
			}
		}
		st.Backends = append(st.Backends, b)
	}
	return st
}
