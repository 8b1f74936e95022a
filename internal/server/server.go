// Package server exposes the simulator as a service: an HTTP API over the
// runner engine (internal/runner) that can execute single simulations,
// regenerate any paper artifact as JSON, poll async jobs, and report
// engine statistics (queue depths, cache hit ratios, simulated
// instructions per second).
//
// Endpoints:
//
//	GET  /healthz                liveness probe (503 once draining)
//	GET  /metrics                Prometheus text exposition (HELP/TYPE, histograms)
//	GET  /v1/stats               engine + cache statistics as JSON
//	GET  /v1/workloads           the bundled workload pool
//	GET  /v1/experiments         the regenerable artifacts
//	POST /v1/runs                one simulation (workload, scheme, instrs)
//	POST /v1/experiments/{id}    regenerate a paper artifact as JSON
//	GET  /v1/jobs                list async submissions (?status=, ?limit=)
//	GET  /v1/jobs/{id}           poll an async submission
//	POST /v1/matrices            submit a distributed experiment matrix
//	GET  /v1/matrices            list matrices (compact per-matrix rows)
//	GET  /v1/matrices/{id}       per-shard status, provenance, partial/final tables
//	POST /v1/matrices/{id}/cancel cancel a running matrix
//	GET  /v1/matrices/{id}/stream SSE tail: shard completions with partial tables
//	GET  /v1/traces              recent request/job traces, newest first
//	GET  /v1/traces/{id}         span records for one trace ID
//	GET  /v1/traces/{id}?cluster=1 assembled cross-process span tree (scrapes peers)
//	GET  /v1/cluster/metrics     federated Prometheus exposition across healthy peers
//
// POST bodies accept "async": true, turning the request into a job whose
// status and result are polled from /v1/jobs/{id}. Identical work is
// served from two content-addressed caches: the runner's per-simulation
// result cache and the server's whole-artifact cache.
//
// Every request carries a trace ID — adopted from a well-formed
// X-Request-ID header or generated — echoed back as X-Request-ID and
// threaded through context into the runner, so GET /v1/traces/{id} shows
// where the request's time went (queue wait, simulation, encode).
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/dispatch"
	"dlvp/internal/experiments"
	"dlvp/internal/lru"
	"dlvp/internal/matrix"
	"dlvp/internal/metrics"
	"dlvp/internal/obs"
	"dlvp/internal/runner"
	"dlvp/internal/workloads"
)

// Options parameterises a Server.
type Options struct {
	// Runner executes all simulation work (nil = a fresh default engine).
	Runner *runner.Runner
	// Dispatcher, when non-nil, routes jobs across the backend ring
	// (in-process engine + peers) with cache-affinity hashing, health
	// checking, retries and a local fallback, and enables GET /v1/cluster.
	// Requests carrying the dispatch.ForwardedHeader bypass it and run
	// on the local engine, so peers never forward in a loop. Nil keeps
	// the PR-1 standalone behaviour.
	Dispatcher *dispatch.Dispatcher
	// Matrix, when non-nil, serves the distributed matrix endpoints from
	// this orchestrator; the caller owns its lifecycle (cmd/dlvpd builds
	// one over the dispatcher with optional persistence and resumes it
	// at boot). Nil constructs a memory-only orchestrator over the
	// Dispatcher (when present) or the local engine, closed by Close.
	Matrix *matrix.Orchestrator
	// RequestTimeout bounds synchronous request handling (default 2m).
	RequestTimeout time.Duration
	// Obs supplies the telemetry sinks (logger, metrics registry, tracer).
	// Nil selects a fresh observer with a discard logger. To correlate
	// runner-level spans and histograms with HTTP requests, construct the
	// runner with the same observer (cmd/dlvpd does).
	Obs *obs.Observer
}

const (
	// defaultInstrs is the per-workload budget when a request omits one:
	// the repo's standard experiment sizing.
	defaultInstrs = 300_000
	// maxInstrs caps per-workload budgets so one request cannot pin the
	// daemon.
	maxInstrs = 10_000_000
	// artifactCacheEntries sizes the whole-artifact cache.
	artifactCacheEntries = 128
	// maxTrackedJobs bounds the async job registry. A registry full of
	// unfinished jobs refuses further async submissions with 429.
	maxTrackedJobs = 1024
)

// Server is the HTTP facade over the runner engine.
type Server struct {
	runner      *runner.Runner
	dispatcher  *dispatch.Dispatcher
	matrices    *matrix.Orchestrator
	ownMatrices bool // Close() owns the orchestrator (none was injected)
	mux         *http.ServeMux
	jobs        *jobStore
	timeout     time.Duration

	// artifacts holds whole artifacts at cost 1 each; identical concurrent
	// requests share one build.
	artifacts *lru.Cache[*experiments.Artifact]

	started      time.Time
	baseCtx      context.Context
	cancel       context.CancelFunc
	async        sync.WaitGroup
	draining     atomic.Bool
	shutdownCh   chan struct{} // closed at BeginShutdown; unblocks SSE streams
	shutdownOnce sync.Once

	obs       *obs.Observer
	httpReqs  *obs.CounterVec   // requests by route/status
	httpDur   *obs.HistogramVec // request latency by route/status
	panics    *obs.Counter      // recovered handler panics
	encodeDur *obs.Histogram    // response JSON encode time

	// fed is the HTTP client used for federation scrapes (peer traces and
	// metrics). Per-scrape deadlines come from the request context, not the
	// client, so one slow peer never stretches the whole fan-out.
	fed *http.Client
}

// New returns a ready-to-serve Server.
func New(opts Options) *Server {
	if opts.Runner == nil {
		opts.Runner = runner.New(runner.Options{})
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 2 * time.Minute
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewObserver(nil)
	}
	reg := opts.Obs.Metrics
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		runner:     opts.Runner,
		dispatcher: opts.Dispatcher,
		mux:        http.NewServeMux(),
		timeout:    opts.RequestTimeout,
		artifacts:  lru.New[*experiments.Artifact](artifactCacheEntries),
		started:    time.Now(),
		baseCtx:    ctx,
		cancel:     cancel,
		shutdownCh: make(chan struct{}),
		obs:        opts.Obs,
		httpReqs: reg.Counter("dlvpd_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "status"),
		httpDur: reg.Histogram("dlvpd_http_request_duration_seconds",
			"HTTP request latency, by route pattern and status code.", nil, "route", "status"),
		panics: reg.Counter("dlvpd_http_panics_total",
			"Handler panics recovered into 500 responses.").With(),
		encodeDur: reg.Histogram("dlvpd_response_encode_seconds",
			"Time spent JSON-encoding response bodies.", nil).With(),
		fed: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        16,
				MaxIdleConnsPerHost: 4,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	s.jobs = newJobStore(maxTrackedJobs, &jobInstruments{
		transitions: reg.Counter("dlvpd_jobs_transitions_total",
			"Async job state transitions (queued→running→done|error), by target state.", "to"),
		queueWait: reg.Histogram("dlvpd_job_queue_wait_seconds",
			"Time async jobs spent queued before starting.", nil).With(),
		runDur: reg.Histogram("dlvpd_job_run_seconds",
			"Async job execution time from start to completion.", nil).With(),
	})
	s.matrices = opts.Matrix
	if s.matrices == nil {
		var cluster matrix.Cluster
		if opts.Dispatcher != nil {
			cluster = opts.Dispatcher
		} else {
			cluster = matrix.SingleEngine{Engine: opts.Runner}
		}
		s.matrices = matrix.New(matrix.Options{Cluster: cluster, Obs: opts.Obs})
		s.ownMatrices = true
	}
	s.registerStatsMetrics(reg)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", reg.Handler())
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("POST /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("POST /v1/matrices", s.handleMatrixSubmit)
	s.mux.HandleFunc("GET /v1/matrices", s.handleMatrixList)
	s.mux.HandleFunc("GET /v1/matrices/{id}", s.handleMatrixGet)
	s.mux.HandleFunc("POST /v1/matrices/{id}/cancel", s.handleMatrixCancel)
	s.mux.HandleFunc("GET /v1/matrices/{id}/stream", s.handleMatrixStream)
	s.mux.HandleFunc("GET /v1/runs/{id}/timeline", s.handleRunTimeline)
	s.mux.HandleFunc("GET /v1/runs/{id}/timeline/stream", s.handleRunTimelineStream)
	s.mux.HandleFunc("GET /v1/runs/{id}/sites", s.handleRunSites)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	return s
}

// registerStatsMetrics exposes the engine/cache/job counters — previously a
// hand-rolled /metrics string dump — as scrape-time families with HELP/TYPE
// metadata. Names are kept from the PR-1 exposition.
func (s *Server) registerStatsMetrics(reg *obs.Registry) {
	bi := ReadBuildInfo()
	reg.Gauge("dlvpd_build_info",
		"Build identity of the running binary; value is constant 1, identity in the labels.",
		"version", "revision", "go_version").
		With(bi.Version, bi.Revision, bi.GoVersion).Set(1)
	rs := func() runner.Stats { return s.runner.Stats() }
	reg.GaugeFunc("dlvpd_uptime_seconds", "Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("dlvpd_runner_workers", "Worker pool size.",
		func() float64 { return float64(rs().Workers) })
	reg.GaugeFunc("dlvpd_runner_jobs_queued", "Jobs waiting for a worker slot now.",
		func() float64 { return float64(rs().JobsQueued) })
	reg.GaugeFunc("dlvpd_runner_jobs_running", "Jobs simulating now.",
		func() float64 { return float64(rs().JobsRunning) })
	reg.CounterFunc("dlvpd_runner_jobs_done", "Jobs completed, including cached and coalesced results.",
		func() float64 { return float64(rs().JobsDone) })
	reg.CounterFunc("dlvpd_runner_jobs_failed", "Jobs that returned an error.",
		func() float64 { return float64(rs().JobsFailed) })
	reg.CounterFunc("dlvpd_runner_sims_executed", "Simulations actually executed (cache misses).",
		func() float64 { return float64(rs().SimsExecuted) })
	reg.CounterFunc("dlvpd_runner_cache_hits", "Result-cache hits.",
		func() float64 { return float64(rs().CacheHits) })
	reg.CounterFunc("dlvpd_runner_cache_misses", "Result-cache misses.",
		func() float64 { return float64(rs().CacheMisses) })
	reg.CounterFunc("dlvpd_runner_cache_coalesced", "Duplicate jobs that waited on an identical in-flight twin.",
		func() float64 { return float64(rs().Coalesced) })
	reg.GaugeFunc("dlvpd_runner_cache_entries", "Result-cache entries resident.",
		func() float64 { return float64(rs().CacheEntries) })
	reg.GaugeFunc("dlvpd_runner_cache_hit_ratio", "Result-cache hit ratio in [0,1], coalesced counted as hits.",
		func() float64 { return rs().HitRatio() })
	reg.CounterFunc("dlvpd_runner_instrs_simulated", "Dynamic instructions simulated in total.",
		func() float64 { return float64(rs().InstrsSimulated) })
	reg.CounterFunc("dlvpd_runner_sim_seconds", "Aggregate worker-seconds spent simulating.",
		func() float64 { return rs().SimSeconds })
	reg.GaugeFunc("dlvpd_runner_instrs_per_sec", "Aggregate simulated instructions per worker-second.",
		func() float64 { return rs().InstrsPerSec })
	reg.GaugeFunc("dlvpd_artifact_cache_entries", "Whole-artifact cache entries resident.",
		func() float64 { return float64(s.artifactStats().Entries) })
	reg.CounterFunc("dlvpd_artifact_cache_hits", "Whole-artifact cache hits.",
		func() float64 { return float64(s.artifactStats().Hits) })
	reg.CounterFunc("dlvpd_artifact_cache_misses", "Whole-artifact cache misses.",
		func() float64 { return float64(s.artifactStats().Misses) })
	reg.GaugeFunc("dlvpd_artifact_cache_hit_ratio", "Whole-artifact cache hit ratio in [0,1].",
		func() float64 { return s.artifactStats().HitRatio })
	reg.GaugeFunc("dlvpd_jobs_tracked_queued", "Tracked async jobs currently queued.",
		func() float64 { return float64(s.jobs.counts()[statusQueued]) })
	reg.GaugeFunc("dlvpd_jobs_tracked_running", "Tracked async jobs currently running.",
		func() float64 { return float64(s.jobs.counts()[statusRunning]) })
	reg.GaugeFunc("dlvpd_jobs_tracked_done", "Tracked async jobs finished successfully.",
		func() float64 { return float64(s.jobs.counts()[statusDone]) })
	reg.GaugeFunc("dlvpd_jobs_tracked_error", "Tracked async jobs finished with an error.",
		func() float64 { return float64(s.jobs.counts()[statusError]) })
}

// Handler returns the routable HTTP handler: the API mux wrapped in the
// request-ID, access-log/metrics, and panic-recovery middleware (outermost
// to innermost), so even unmatched routes are traced, logged, and counted.
func (s *Server) Handler() http.Handler {
	return s.requestIDMiddleware(s.accessLogMiddleware(s.recoverMiddleware(s.mux)))
}

// BeginShutdown flips /healthz to 503 so load balancers stop routing new
// traffic to a draining daemon, and unblocks long-lived SSE streams so
// http.Server.Shutdown — which waits for in-flight requests but does not
// cancel their contexts — is not held hostage by a connected stream
// client for the full grace period. Safe to call more than once; Drain
// calls it implicitly.
func (s *Server) BeginShutdown() {
	s.draining.Store(true)
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain waits for in-flight async jobs to finish or ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginShutdown()
	done := make(chan struct{})
	go func() {
		s.async.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels the base context shared by async jobs. Call after Drain.
func (s *Server) Close() {
	s.cancel()
	if s.ownMatrices {
		s.matrices.Close()
	}
}

// --- wire shapes -------------------------------------------------------------

type errorBody struct {
	Error string   `json:"error"`
	Known []string `json:"known,omitempty"`
}

type runRequest struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	// Config, when present, overrides Scheme with an explicit core
	// configuration, which must pass config.Core.Validate.
	// Dispatcher-forwarded jobs always use it so ablated configurations
	// content-address identically on every peer.
	Config *config.Core `json:"config"`
	Instrs uint64       `json:"instrs"`
	// Sampling, when present, runs the job as a checkpointed sampled
	// simulation instead of one monolithic detailed run. Validated against
	// the clamped instruction budget before the job is admitted.
	Sampling *runner.SamplingSpec `json:"sampling,omitempty"`
	Async    bool                 `json:"async"`
}

type runResponse struct {
	Workload  string              `json:"workload"`
	Scheme    string              `json:"scheme"`
	Instrs    uint64              `json:"instrs"`
	Cached    bool                `json:"cached"`
	ElapsedMS int64               `json:"elapsed_ms"`
	Stats     metrics.RunStats    `json:"stats"`
	Sampled   *runner.SampledInfo `json:"sampled,omitempty"`
}

type experimentRequest struct {
	Instrs    uint64   `json:"instrs"`
	Workloads []string `json:"workloads"`
	Async     bool     `json:"async"`
}

type experimentResponse struct {
	Cached    bool                  `json:"cached"`
	ElapsedMS int64                 `json:"elapsed_ms"`
	Artifact  *experiments.Artifact `json:"artifact"`
}

type acceptedResponse struct {
	JobID  string `json:"job_id"`
	Status string `json:"status"`
	Poll   string `json:"poll"`
}

// --- handlers ----------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, r, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type wl struct {
		Name        string `json:"name"`
		Suite       string `json:"suite"`
		Description string `json:"description"`
	}
	var out []wl
	for _, p := range workloads.All() {
		out = append(out, wl{Name: p.Name, Suite: p.Suite, Description: p.Description})
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{"workloads": out})
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	type exp struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	}
	var out []exp
	for _, e := range experiments.All() {
		out = append(out, exp{ID: e.ID, Name: e.Name})
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{"experiments": out})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: "invalid JSON body: " + err.Error()})
		return
	}
	var cfg config.Core
	switch {
	case req.Config != nil:
		cfg = *req.Config
		if err := cfg.Validate(); err != nil {
			s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		if req.Scheme == "" {
			req.Scheme = "custom"
		}
	default:
		if req.Scheme == "" {
			req.Scheme = "baseline"
		}
		var ok bool
		cfg, ok = config.ByScheme(req.Scheme)
		if !ok {
			s.writeJSON(w, r, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("unknown scheme %q", req.Scheme),
				Known: config.SchemeNames(),
			})
			return
		}
	}
	if _, ok := workloads.ByName(req.Workload); !ok {
		s.writeJSON(w, r, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("unknown workload %q", req.Workload),
			Known: workloads.Names(),
		})
		return
	}
	instrs, err := clampInstrs(req.Instrs)
	if err != nil {
		s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if req.Sampling != nil {
		if _, err := req.Sampling.Normalize(instrs); err != nil {
			s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
	}
	job := runner.Job{Workload: req.Workload, Config: cfg, Instrs: instrs, Sampling: req.Sampling}
	eng := s.engineFor(r)
	run := func(ctx context.Context) (runResponse, error) {
		start := time.Now()
		res, cached, err := eng.RunResult(ctx, job)
		return runResponse{
			Workload:  req.Workload,
			Scheme:    req.Scheme,
			Instrs:    instrs,
			Cached:    cached,
			ElapsedMS: time.Since(start).Milliseconds(),
			Stats:     res.Stats,
			Sampled:   res.Sampled,
		}, err
	}

	if req.Async {
		rec, err := s.jobs.add("run", obs.TraceID(r.Context()))
		if err != nil {
			s.writeJSON(w, r, http.StatusTooManyRequests, errorBody{Error: err.Error()})
			return
		}
		if key, err := job.Key(); err == nil {
			rec.setRun(key)
		}
		s.spawn(rec, rec.trace, obs.SpanID(r.Context()), func(ctx context.Context) (any, error) {
			resp, err := run(ctx)
			if err != nil {
				return nil, err
			}
			return resp, nil
		})
		s.writeJSON(w, r, http.StatusAccepted, acceptedResponse{JobID: rec.id, Status: statusQueued, Poll: "/v1/jobs/" + rec.id})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	resp, err := run(ctx)
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	exp, ok := experiments.ByID(id)
	if !ok {
		var known []string
		for _, e := range experiments.All() {
			known = append(known, e.ID)
		}
		s.writeJSON(w, r, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown experiment %q", id), Known: known})
		return
	}
	var req experimentRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: "invalid JSON body: " + err.Error()})
			return
		}
	}
	for _, name := range req.Workloads {
		if _, ok := workloads.ByName(name); !ok {
			s.writeJSON(w, r, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("unknown workload %q", name),
				Known: workloads.Names(),
			})
			return
		}
	}
	instrs, err := clampInstrs(req.Instrs)
	if err != nil {
		s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	key := artifactKey(id, instrs, req.Workloads)
	eng := s.engineFor(r)
	if id == "sites" {
		// Site profiles exist only on the local engine (see sitesFor): a
		// job a peer executed comes back without one.
		eng = s.runner
	}
	build := func(ctx context.Context) (*experiments.Artifact, bool, error) {
		sp := obs.StartSpan(ctx, "artifact.build").Attr("experiment", id)
		a, out, err := s.artifacts.Do(ctx, key, func(ctx context.Context) (*experiments.Artifact, int64, error) {
			a, err := exp.RunArtifact(experiments.Params{
				Instrs:    instrs,
				Workloads: req.Workloads,
				Ctx:       ctx,
				Runner:    eng,
			})
			return a, 1, err
		})
		sp.Attr("cache", string(out)).End()
		return a, out != lru.Miss, err
	}

	if req.Async {
		rec, err := s.jobs.add("experiment", obs.TraceID(r.Context()))
		if err != nil {
			s.writeJSON(w, r, http.StatusTooManyRequests, errorBody{Error: err.Error()})
			return
		}
		s.spawn(rec, rec.trace, obs.SpanID(r.Context()), func(ctx context.Context) (any, error) {
			start := time.Now()
			a, cached, err := build(ctx)
			if err != nil {
				return nil, err
			}
			return experimentResponse{Cached: cached, ElapsedMS: time.Since(start).Milliseconds(), Artifact: a}, nil
		})
		s.writeJSON(w, r, http.StatusAccepted, acceptedResponse{JobID: rec.id, Status: statusQueued, Poll: "/v1/jobs/" + rec.id})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	start := time.Now()
	a, cached, err := build(ctx)
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, experimentResponse{Cached: cached, ElapsedMS: time.Since(start).Milliseconds(), Artifact: a})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return
	}
	s.writeJSON(w, r, http.StatusOK, j.view())
}

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	UptimeSec float64       `json:"uptime_sec"`
	Build     BuildInfo     `json:"build"`
	Runner    runner.Stats  `json:"runner"`
	Artifacts ArtifactStats `json:"artifact_cache"`
	Jobs      JobStats      `json:"jobs"`
}

// ArtifactStats reports the whole-artifact cache counters. A request that
// waited on an identical request's build counts as a hit, as the runner's
// hit ratio counts a coalesced job: Misses is the number of builds started.
type ArtifactStats struct {
	Entries  int     `json:"entries"`
	Capacity int     `json:"capacity"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// JobStats reports async job registry totals.
type JobStats struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Error   int `json:"error"`
}

func (s *Server) artifactStats() ArtifactStats {
	cs := s.artifacts.Stats()
	a := ArtifactStats{
		Entries:  cs.Len,
		Capacity: int(cs.Budget),
		Hits:     cs.Hits + cs.Coalesced,
		Misses:   cs.Misses,
	}
	if a.Hits+a.Misses > 0 {
		a.HitRatio = float64(a.Hits) / float64(a.Hits+a.Misses)
	}
	return a
}

func (s *Server) stats() ServerStats {
	counts := s.jobs.counts()
	return ServerStats{
		UptimeSec: time.Since(s.started).Seconds(),
		Build:     ReadBuildInfo(),
		Runner:    s.runner.Stats(),
		Artifacts: s.artifactStats(),
		Jobs: JobStats{
			Queued:  counts[statusQueued],
			Running: counts[statusRunning],
			Done:    counts[statusDone],
			Error:   counts[statusError],
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, s.stats())
}

// Paging bounds for GET /v1/jobs: the listing defaults to one page of
// DefaultJobListLimit and never returns more than MaxJobListLimit rows,
// so sustained traffic cannot turn the inventory into an unbounded dump.
const (
	DefaultJobListLimit = 100
	MaxJobListLimit     = 1000
)

// handleJobList enumerates tracked async jobs, newest first, so operators
// can see in-flight work without knowing job IDs. ?status= filters by
// lifecycle state; ?limit= and ?offset= page through the filtered set
// (limit defaults to DefaultJobListLimit, capped at MaxJobListLimit). The
// envelope reports the total matching count so clients can page. Results
// are omitted from list entries — poll /v1/jobs/{id} for payloads.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	status := r.URL.Query().Get("status")
	switch status {
	case "", statusQueued, statusRunning, statusDone, statusError:
	default:
		s.writeJSON(w, r, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("unknown status %q", status),
			Known: []string{statusQueued, statusRunning, statusDone, statusError},
		})
		return
	}
	limit := DefaultJobListLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid limit %q", raw)})
			return
		}
		limit = min(n, MaxJobListLimit)
	}
	offset := 0
	if raw := r.URL.Query().Get("offset"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid offset %q", raw)})
			return
		}
		offset = n
	}
	views, total := s.jobs.list(status, limit, offset)
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"jobs":   views,
		"count":  len(views),
		"total":  total,
		"limit":  limit,
		"offset": offset,
	})
}

// Paging bounds for GET /v1/traces, mirroring the /v1/jobs conventions.
const (
	DefaultTraceListLimit = 50
	MaxTraceListLimit     = 500
)

// handleTraces lists retained traces, newest first. ?limit= caps the page
// (default DefaultTraceListLimit, at most MaxTraceListLimit); the envelope
// reports the total retained count alongside the page.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := DefaultTraceListLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid limit %q", raw)})
			return
		}
		limit = min(n, MaxTraceListLimit)
	}
	sums := s.obs.Tracer.Summaries()
	total := len(sums)
	if len(sums) > limit {
		sums = sums[:limit]
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"traces": sums,
		"count":  len(sums),
		"total":  total,
		"limit":  limit,
	})
}

// handleTrace returns the span records collected under one trace ID.
// ?cluster=1 additionally scrapes every healthy peer's local view of the
// same trace and returns the assembled cross-process span tree instead.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if v := r.URL.Query().Get("cluster"); v == "1" || v == "true" {
		s.handleTraceCluster(w, r)
		return
	}
	view, ok := s.obs.Tracer.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{Error: "unknown or evicted trace id"})
		return
	}
	s.writeJSON(w, r, http.StatusOK, view)
}

// --- helpers -----------------------------------------------------------------

// spawn runs fn as a tracked async job under the server's base context.
// The originating request's trace ID and current span are re-attached to
// the job context so runner spans land in the same trace the caller was
// given — parented under the accepting request's span — and a job-level
// span brackets the whole execution.
func (s *Server) spawn(rec *asyncJob, traceID, parentSpan string, fn func(context.Context) (any, error)) {
	s.async.Add(1)
	go func() {
		defer s.async.Done()
		ctx := s.baseCtx
		if traceID != "" {
			ctx = obs.ContextWithRemoteParent(ctx, s.obs.Tracer, traceID, parentSpan)
		}
		rec.setRunning()
		ctx, sp := obs.StartSpanCtx(ctx, "job.execute")
		sp.Attr("kind", rec.kind).Attr("job_id", rec.id)
		result, err := func() (result any, err error) {
			// A panicking job fails alone: this goroutine is the top of
			// its stack, so an unrecovered panic would end the daemon.
			defer func() {
				if p := recover(); p != nil {
					s.obs.Log.Error("async job panicked", "job_id", rec.id, "kind", rec.kind, "trace_id", traceID,
						"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
					err = fmt.Errorf("panic: %v", p)
				}
			}()
			return fn(ctx)
		}()
		if err != nil {
			sp.Attr("error", err.Error())
			s.obs.Log.Warn("async job failed", "job_id", rec.id, "kind", rec.kind, "trace_id", traceID, "error", err)
		}
		sp.End()
		rec.finish(result, err)
	}()
}

func clampInstrs(instrs uint64) (uint64, error) {
	if instrs == 0 {
		return defaultInstrs, nil
	}
	if instrs > maxInstrs {
		return 0, fmt.Errorf("instrs %d exceeds the per-request cap %d", instrs, maxInstrs)
	}
	return instrs, nil
}

// writeRunError maps execution errors to HTTP statuses.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	var uw *runner.UnknownWorkloadError
	var re *dispatch.RemoteError
	switch {
	case errors.As(err, &uw):
		s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: err.Error(), Known: workloads.Names()})
	case errors.As(err, &re):
		// A peer rejected or failed the forwarded job and the local
		// fallback could not save it either; surface it as an upstream
		// failure rather than our own.
		s.writeJSON(w, r, http.StatusBadGateway, errorBody{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		s.writeJSON(w, r, http.StatusGatewayTimeout, errorBody{Error: "request timed out: " + err.Error()})
	case errors.Is(err, context.Canceled):
		s.writeJSON(w, r, http.StatusServiceUnavailable, errorBody{Error: "request cancelled: " + err.Error()})
	default:
		s.writeJSON(w, r, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// artifactKey content-addresses one experiment request.
func artifactKey(id string, instrs uint64, wls []string) string {
	// Workload order affects row order only through pool resolution, which
	// preserves the given order; a reordered request is a different table,
	// so the order stays part of the address.
	payload, _ := json.Marshal(struct {
		ID        string   `json:"id"`
		Instrs    uint64   `json:"instrs"`
		Workloads []string `json:"workloads"`
	}{id, instrs, wls})
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// writeJSON writes v as an indented JSON body. The Content-Type header is
// set unconditionally before any write, so every JSON-path response —
// success, error, panic recovery — is correctly typed, and the encode time
// (the serving stack's fourth phase after queue/cache/simulate) feeds its
// own histogram and span.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	sp := obs.StartSpan(r.Context(), "http.encode")
	start := time.Now()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	s.encodeDur.Observe(time.Since(start).Seconds())
	sp.End()
}
