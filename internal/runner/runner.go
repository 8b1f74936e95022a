// Package runner is the repository's simulation execution engine. Every
// subsystem that needs a timing simulation — the experiment drivers, the
// CLIs, the benchmark harness and the HTTP daemon — submits Jobs here
// instead of spawning its own goroutines.
//
// The engine provides:
//
//   - a job abstraction: Job{Workload, Config, Instrs} -> metrics.RunStats;
//   - a bounded worker pool whose slots are acquired *inside* the worker
//     goroutine, so submission never blocks and cancellation via
//     context.Context is honoured while a job is still queued;
//   - a content-addressed, in-memory LRU result cache keyed by
//     hash(workload, canonical-config, instrs), so identical runs (common
//     across the paper's figures, which all re-simulate the Table 4
//     baseline) are computed exactly once;
//   - coalescing of concurrent identical jobs (single-flight): a duplicate
//     submitted while its twin is still simulating waits for that result
//     instead of burning a second worker;
//   - deterministic aggregation (FanOut returns results in submission
//     order regardless of completion order), progress callbacks, and
//     engine-level statistics (queue depths, cache hit ratio, aggregate
//     simulated-instructions per second).
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dlvp/internal/checkpoint"
	"dlvp/internal/config"
	"dlvp/internal/lru"
	"dlvp/internal/metrics"
	"dlvp/internal/obs"
	"dlvp/internal/siteprof"
	"dlvp/internal/timeline"
	"dlvp/internal/trace"
	"dlvp/internal/tracecache"
	"dlvp/internal/uarch"
	"dlvp/internal/workloads"
)

// Job is one simulation request: run the named workload for Instrs dynamic
// instructions under Config. Jobs are pure values; two jobs with equal
// fields are the same computation and share one cache entry.
type Job struct {
	Workload string      `json:"workload"`
	Config   config.Core `json:"config"`
	Instrs   uint64      `json:"instrs"`
	// Sampling, when non-nil, selects checkpointed sampled execution:
	// the result is a SimPoint-style estimate over Instrs rather than a
	// monolithic detailed simulation. Sampled and full jobs over the
	// same (workload, config, instrs) are distinct computations and hash
	// to distinct cache keys.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
}

// Key returns the job's content address: a hex SHA-256 over the canonical
// encoding of (workload, config, instrs). Configurations are plain data
// (no funcs, no maps), so their JSON encoding is canonical: struct fields
// marshal in declaration order.
func (j Job) Key() (string, error) {
	enc, err := json.Marshal(j)
	if err != nil {
		return "", fmt.Errorf("runner: canonicalize job: %w", err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), nil
}

// UnknownWorkloadError reports a job naming a workload that is not in the
// registry. Callers (CLIs, the HTTP server) unwrap it to produce a helpful
// "known workloads" message.
type UnknownWorkloadError struct {
	Name string
}

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("unknown workload %q", e.Name)
}

// Result is the full product of one job: the aggregate statistics, its
// interval flight-recorder series and its per-load-site attribution
// profile. Results are what the content-addressed cache stores, so a
// cached job replays with its timeline and profile intact.
type Result struct {
	Stats metrics.RunStats `json:"stats"`
	// Timeline is the interval flight-recorder series: one sample per
	// timeline.DefaultIntervalInstrs committed instructions for a full
	// run, one per interval for a sampled one.
	Timeline *timeline.Timeline `json:"timeline,omitempty"`
	// Sampled is set on results produced by checkpointed sampled
	// execution; nil means a monolithic detailed run.
	Sampled *SampledInfo `json:"sampled,omitempty"`
	// Sites is the per-load-site misprediction attribution profile.
	// Sampled jobs merge one profile per measured interval.
	Sites *siteprof.Profile `json:"sites,omitempty"`
}

// DefaultCacheEntries is the result-cache capacity when Options.CacheEntries
// is zero. A RunStats is a few hundred bytes. Over the 43 workloads x 4
// schemes at 300k instructions a site profile held 4 KB on average in
// memory (1.5 KB median, 41 KB for the largest, 256 sites) and a timeline
// 3-4 samples of ~450 bytes, so a full default cache costs ~26 MB. A
// timeline reaches its cap of a full ring (~230 KB) only past 51.2M
// instructions.
const DefaultCacheEntries = 4096

// Options parameterises a Runner. Every executed job records its
// interval timeline (timeline.DefaultIntervalInstrs, DefaultCapacity) and
// its per-load-site attribution profile (siteprof.DefaultMaxSites);
// finished recordings ride on Result and the cache, live ones are
// reachable through LiveTimeline and LiveSites while a job simulates.
type Options struct {
	// Workers bounds concurrent simulations (<= 0: runtime.NumCPU()).
	Workers int
	// CacheEntries sizes the result cache. 0 selects DefaultCacheEntries;
	// a negative value disables caching (the benchmark harness does this so
	// every iteration measures a real simulation).
	CacheEntries int
	// Obs, when non-nil, registers the engine's latency histograms and
	// cache-outcome counters on the observer's metrics registry and enables
	// per-phase span recording for traced contexts. Nil leaves the engine
	// uninstrumented (library/CLI use); the hooks then cost one pointer test.
	Obs *obs.Observer
	// TraceCache, when non-nil, captures each workload's functional
	// emulation stream on first use and replays it to every subsequent job
	// over the same (workload, instrs), so a configuration matrix pays the
	// emulation cost once per workload instead of once per job. Nil keeps
	// the emulate-per-job behaviour.
	TraceCache *tracecache.Cache
	// Checkpoints is the architectural checkpoint store backing sampled
	// jobs; full runs never touch it. Nil constructs a store with the
	// default byte budget — every runner can serve sampled jobs.
	Checkpoints *checkpoint.Store
}

// instruments holds the engine's telemetry handles (nil when the runner
// was built without an Observer).
type instruments struct {
	queueWait  *obs.Histogram  // seconds a job waited for a worker slot
	simDur     *obs.Histogram  // wall seconds of one executed simulation
	captureDur *obs.Histogram  // wall seconds of emulating a stream into the trace cache
	lookups    *obs.CounterVec // cache lookups by outcome hit|miss|coalesced|cancelled|trace_cache
}

func newInstruments(o *obs.Observer) *instruments {
	if o == nil {
		return nil
	}
	reg := o.Metrics
	return &instruments{
		queueWait: reg.Histogram("dlvpd_runner_queue_wait_seconds",
			"Time jobs spent waiting for a worker slot.", nil).With(),
		simDur: reg.Histogram("dlvpd_runner_sim_duration_seconds",
			"Wall time of executed simulations (cache hits excluded).", nil).With(),
		captureDur: reg.Histogram("dlvpd_runner_trace_capture_seconds",
			"Wall time of emulating a job's stream into the trace cache before it simulates.", nil).With(),
		lookups: reg.Counter("dlvpd_runner_cache_lookups_total",
			"Result-cache lookups by outcome.", "outcome"),
	}
}

// registerTraceCacheMetrics exposes the trace cache's counters at scrape
// time. Safe under repeated registration (shared registries re-fetch the
// existing family).
func registerTraceCacheMetrics(reg *obs.Registry, tc *tracecache.Cache) {
	reg.GaugeFunc("dlvpd_tracecache_bytes_resident",
		"Bytes of complete captures resident in the trace cache plus the bounds reserved by captures in flight.",
		func() float64 { s := tc.Stats(); return float64(s.ResidentBytes + s.CapturingBytes) })
	reg.GaugeFunc("dlvpd_tracecache_entries",
		"Complete trace captures resident in the trace cache.",
		func() float64 { return float64(tc.Stats().Entries) })
	reg.CounterFunc("dlvpd_tracecache_captures_total",
		"Trace captures started (one live emulation each).",
		func() float64 { return float64(tc.Stats().Captures) })
	reg.CounterFunc("dlvpd_tracecache_replays_total",
		"Simulations fed from a captured trace (replays plus follows).",
		func() float64 { s := tc.Stats(); return float64(s.Replays + s.Follows) })
	reg.CounterFunc("dlvpd_tracecache_evictions_total",
		"Complete captures evicted to respect the byte budget.",
		func() float64 { return float64(tc.Stats().Evictions) })
	reg.CounterFunc("dlvpd_tracecache_emulations_total",
		"Live emulator streams constructed (captures and bypasses).",
		func() float64 { return float64(tc.Stats().Emulations) })
}

// registerCheckpointMetrics exposes the checkpoint store's counters at
// scrape time.
func registerCheckpointMetrics(reg *obs.Registry, st *checkpoint.Store) {
	reg.GaugeFunc("dlvpd_checkpoint_bytes_resident",
		"Bytes of encoded architectural checkpoints resident in the store.",
		func() float64 { return float64(st.Stats().ResidentBytes) })
	reg.GaugeFunc("dlvpd_checkpoint_entries",
		"Architectural checkpoints resident in the store.",
		func() float64 { return float64(st.Stats().Entries) })
	reg.CounterFunc("dlvpd_checkpoint_hits_total",
		"Checkpoint restores served from a resident exact-offset checkpoint.",
		func() float64 { return float64(st.Stats().Hits) })
	reg.CounterFunc("dlvpd_checkpoint_builds_total",
		"Checkpoint builds (chained from an earlier checkpoint or cold from the program entry).",
		func() float64 { s := st.Stats(); return float64(s.Chained + s.Cold) })
	reg.CounterFunc("dlvpd_checkpoint_evictions_total",
		"Checkpoints evicted to respect the byte budget.",
		func() float64 { return float64(st.Stats().Evictions) })
}

// Runner executes simulation jobs on a bounded pool with result caching.
// The zero value is not usable; construct with New.
type Runner struct {
	workers int
	sem     chan struct{}
	// cache holds results at cost 1 each, so its budget is an entry
	// count; a disabled cache has budget 0 and still coalesces.
	cache   *lru.Cache[Result]
	caching bool // the cache retains results: count its misses
	tcache  *tracecache.Cache
	ckpt    *checkpoint.Store
	inst    *instruments

	mu   sync.Mutex
	live map[string]*liveJob

	queued           atomic.Int64
	running          atomic.Int64
	done             atomic.Int64
	failed           atomic.Int64
	cancelled        atomic.Int64
	executed         atomic.Int64
	hits             atomic.Int64
	misses           atomic.Int64
	coalesced        atomic.Int64
	instrs           atomic.Uint64
	simNanos         atomic.Int64
	sampledRuns      atomic.Int64
	sampledIntervals atomic.Int64
}

// liveJob is what a job publishes while it simulates: its timeline
// recorder and site collector. A sampled run publishes no collector.
// RunResult withdraws it only after the result is cached, so the
// timeline and sites endpoints always find one or the other.
type liveJob struct {
	rec *timeline.Recorder
	col *siteprof.Collector
}

// New returns a runner with the given options.
func New(opts Options) *Runner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	entries := opts.CacheEntries
	if entries == 0 {
		entries = DefaultCacheEntries
	}
	if opts.Obs != nil && opts.TraceCache != nil {
		registerTraceCacheMetrics(opts.Obs.Metrics, opts.TraceCache)
	}
	ckpt := opts.Checkpoints
	if ckpt == nil {
		ckpt = checkpoint.NewStore(0)
	}
	if opts.Obs != nil {
		registerCheckpointMetrics(opts.Obs.Metrics, ckpt)
	}
	return &Runner{
		workers: workers,
		sem:     make(chan struct{}, workers),
		cache:   lru.New[Result](int64(entries)),
		caching: entries > 0,
		tcache:  opts.TraceCache,
		ckpt:    ckpt,
		inst:    newInstruments(opts.Obs),
		live:    make(map[string]*liveJob),
	}
}

// TraceCache returns the engine's trace capture/replay cache (nil when
// disabled).
func (r *Runner) TraceCache() *tracecache.Cache { return r.tcache }

// Checkpoints returns the engine's architectural checkpoint store.
func (r *Runner) Checkpoints() *checkpoint.Store { return r.ckpt }

// Workers reports the pool bound.
func (r *Runner) Workers() int { return r.workers }

// Run executes one job, returning its statistics and whether the result
// was served from the cache (or coalesced onto a concurrent twin). It
// blocks until the job finishes, the result is found, or ctx is cancelled
// while the job is still waiting for a worker slot.
func (r *Runner) Run(ctx context.Context, job Job) (metrics.RunStats, bool, error) {
	res, cached, err := r.RunResult(ctx, job)
	return res.Stats, cached, err
}

// RunResult is Run returning the full Result (stats, timeline and site
// profile).
func (r *Runner) RunResult(ctx context.Context, job Job) (Result, bool, error) {
	var zero Result
	if err := ctx.Err(); err != nil {
		r.cancelled.Add(1)
		return zero, false, err
	}
	w, ok := workloads.ByName(job.Workload)
	if !ok {
		r.failed.Add(1)
		return zero, false, &UnknownWorkloadError{Name: job.Workload}
	}
	if job.Sampling != nil {
		if _, err := job.Sampling.Normalize(job.Instrs); err != nil {
			r.failed.Add(1)
			return zero, false, err
		}
	}
	key, err := job.Key()
	if err != nil {
		r.failed.Add(1)
		return zero, false, err
	}

	// StartSpanCtx (not StartSpan) so the phase spans below — queue wait,
	// execute, capture/replay — parent under runner.run instead of landing
	// as flat siblings in the assembled tree.
	ctx, sp := obs.StartSpanCtx(ctx, "runner.run")
	sp.Attr("workload", job.Workload).
		Attr("instrs", strconv.FormatUint(job.Instrs, 10))

	var lv *liveJob // set when this call leads the job
	res, out, err := r.cache.Do(ctx, key, func(ctx context.Context) (Result, int64, error) {
		if r.caching {
			r.misses.Add(1)
			r.countLookup("miss")
		}
		lv = &liveJob{}
		res, err := r.lead(ctx, key, lv, w, job)
		return res, 1, err
	})
	if lv != nil {
		r.mu.Lock()
		if r.live[key] == lv {
			delete(r.live, key)
		}
		r.mu.Unlock()
	}
	sp.Attr("cache", string(out))
	switch {
	case err == nil:
		switch out {
		case lru.Hit:
			r.hits.Add(1)
			r.countLookup("hit")
		case lru.Coalesced:
			r.coalesced.Add(1)
			r.countLookup("coalesced")
		}
		r.done.Add(1)
		sp.End()
		return res, out != lru.Miss, nil
	case out == lru.Coalesced && ctx.Err() != nil:
		// The caller gave up waiting; the underlying simulation is
		// unaffected (and usually succeeds), so this is a cancelled
		// wait, not a failed job.
		r.cancelled.Add(1)
		r.countLookup("cancelled")
		sp.Attr("cache", "cancelled")
	case out == lru.Coalesced:
		// The flight's lead already accounted this failure; counting it
		// again per waiter would multi-count one failed simulation.
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.cancelled.Add(1) // the caller's context ended, not the job
	default:
		r.failed.Add(1)
	}
	sp.Attr("error", err.Error()).End()
	return zero, false, err
}

// CachedResult returns the cached result for a job key, if present. It does
// not count as a cache lookup in the engine statistics (the serving paths
// use Run/RunResult); the timeline HTTP endpoints use it to fetch the
// flight-recorder series of an already-finished run.
func (r *Runner) CachedResult(key string) (Result, bool) {
	return r.cache.Get(key)
}

// LiveTimeline returns the in-flight recorder for a job key while its
// simulation is running (nil otherwise). The recorder is safe for
// concurrent reads via Snapshot/Partial — this is what the SSE streaming
// endpoint tails.
func (r *Runner) LiveTimeline(key string) *timeline.Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lv := r.live[key]; lv != nil {
		return lv.rec
	}
	return nil
}

// LiveSites returns the in-flight site-attribution collector for a job
// key while its simulation is running (nil otherwise). The collector is
// safe for concurrent reads via Snapshot — this is what the live
// /v1/runs/{id}/sites endpoint polls.
func (r *Runner) LiveSites(key string) *siteprof.Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lv := r.live[key]; lv != nil {
		return lv.col
	}
	return nil
}

// countLookup bumps the cache-outcome counter when instrumented.
func (r *Runner) countLookup(outcome string) {
	if r.inst != nil {
		r.inst.lookups.With(outcome).Inc()
	}
}

// lead simulates a job as the unique owner of its cache flight, publishing
// its recorders through lv while it runs.
func (r *Runner) lead(ctx context.Context, key string, lv *liveJob, w workloads.Workload, job Job) (res Result, err error) {
	// The worker slot is acquired here, inside the worker's own goroutine,
	// never by the submitter — so a cancelled matrix abandons its queued
	// jobs immediately instead of serialising on submission.
	qsp := obs.StartSpan(ctx, "runner.queue").Attr("workload", job.Workload)
	enqueued := time.Now()
	r.queued.Add(1)
	select {
	case r.sem <- struct{}{}:
		r.queued.Add(-1)
	case <-ctx.Done():
		r.queued.Add(-1)
		qsp.Attr("outcome", "cancelled").End()
		return res, ctx.Err()
	}
	defer func() { <-r.sem }()
	if r.inst != nil {
		r.inst.queueWait.Observe(time.Since(enqueued).Seconds())
	}
	qsp.End()

	// Sampled jobs take the checkpoint-and-interval path; the lead's
	// worker slot (and any idle pool slots) back the interval fan-out.
	if job.Sampling != nil {
		return r.runSampled(ctx, key, lv, w, job)
	}

	xsp := obs.StartSpan(ctx, "runner.execute").Attr("workload", job.Workload)
	r.running.Add(1)
	defer r.running.Add(-1) // also when the simulation panics
	start := time.Now()

	reader, _, err := r.openTrace(ctx, w, job)
	if err != nil {
		xsp.Attr("outcome", "cancelled").End()
		return Result{}, err
	}
	arena := uarch.AcquireArena()
	defer uarch.ReleaseArena(arena)
	core := uarch.NewAtArena(job.Config, w.Build(), reader, nil, arena)
	lv.rec = core.EnableTimeline(0, 0)
	lv.col = core.EnableSiteProfile(0)
	r.publishLive(key, lv)
	// A job whose context ends stops simulating; its cut-short result is
	// never returned, so it is never cached.
	stop := context.AfterFunc(ctx, core.Stop)
	res.Stats = core.Run(0)
	if !stop() {
		xsp.Attr("outcome", "cancelled").End()
		return Result{}, ctx.Err()
	}
	res.Timeline = core.Timeline()
	res.Sites = core.SiteProfile()
	st := res.Stats
	elapsed := time.Since(start)
	r.simNanos.Add(int64(elapsed))
	r.executed.Add(1)
	r.instrs.Add(st.Instructions)
	if r.inst != nil {
		r.inst.simDur.Observe(elapsed.Seconds())
	}
	xsp.Attr("instructions", strconv.FormatUint(st.Instructions, 10)).End()
	return res, nil
}

// openTrace returns a full run's instruction stream. The trace cache
// replaces the per-job functional emulation with a capture-once/
// replay-many stream: the first job over a (workload, instrs) emulates it
// into the cache, timed by the runner.capture span and the capture
// histogram, and every other job decodes the captured stream, waiting
// first if the capture is still in flight. A nil cache bypasses to live
// emulation. Once ctx ends, a capture or a wait for one stops within 4096
// records and openTrace returns ctx's error.
func (r *Runner) openTrace(ctx context.Context, w workloads.Workload, job Job) (trace.Reader, tracecache.Outcome, error) {
	sp := obs.StartSpan(ctx, "runner.capture").Attr("workload", job.Workload)
	start := time.Now()
	reader, outcome, err := r.tcache.ReaderContext(ctx, job.Workload, job.Instrs,
		func() trace.Reader { return w.Reader(job.Instrs) })
	if err != nil {
		sp.Attr("outcome", "cancelled").End()
		return nil, outcome, err
	}
	switch outcome {
	case tracecache.OutcomeCapture:
		sp.End() // a span is recorded only when it ends
		if r.inst != nil {
			r.inst.captureDur.Observe(time.Since(start).Seconds())
		}
	case tracecache.OutcomeReplay, tracecache.OutcomeFollow:
		r.countLookup("trace_cache")
	}
	return reader, outcome, nil
}

// publishLive makes a running job's recorders reachable through
// LiveTimeline and LiveSites.
func (r *Runner) publishLive(key string, lv *liveJob) {
	r.mu.Lock()
	r.live[key] = lv
	r.mu.Unlock()
}

// Matrix parameterises a FanOut call.
type Matrix struct {
	// Progress, when non-nil, is invoked after each job completes, with the
	// number done so far and the total. Calls are serialised.
	Progress func(done, total int)
}

// RunAll executes every job on the pool through FanOut.
func (r *Runner) RunAll(ctx context.Context, jobs []Job, opt Matrix) ([]metrics.RunStats, error) {
	return FanOut(ctx, jobs, opt, r.Run)
}

// FanOut executes every job through run concurrently and returns the
// results in submission order (deterministic aggregation regardless of
// completion order). run is Run for statistics or RunResult for full
// results, on the runner's pool or a dispatcher's ring, which bounds the
// real parallelism. On cancellation FanOut returns ctx.Err(); the first
// job-level error otherwise. Results of jobs that did not run are zero.
func FanOut[R any](ctx context.Context, jobs []Job, opt Matrix, run func(context.Context, Job) (R, bool, error)) ([]R, error) {
	results := make([]R, len(jobs))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		nDone    int
	)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, err := run(ctx, jobs[i])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			results[i] = st
			nDone++
			if opt.Progress != nil {
				opt.Progress(nDone, len(jobs))
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, firstErr
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Workers     int   `json:"workers"`
	JobsQueued  int64 `json:"jobs_queued"`  // waiting for a worker slot now
	JobsRunning int64 `json:"jobs_running"` // simulating now
	JobsDone    int64 `json:"jobs_done"`    // completed, incl. cached/coalesced
	JobsFailed  int64 `json:"jobs_failed"`
	// JobsCancelled counts jobs abandoned by their caller's context —
	// while queued, or while coalesced-waiting on a twin flight whose
	// simulation itself carries on. These are not failures: the
	// underlying work either never started or finished for someone else.
	JobsCancelled   int64   `json:"jobs_cancelled"`
	SimsExecuted    int64   `json:"sims_executed"` // simulations actually run
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	Coalesced       int64   `json:"coalesced"` // duplicates that waited on a twin
	CacheEntries    int     `json:"cache_entries"`
	CacheCapacity   int     `json:"cache_capacity"`
	InstrsSimulated uint64  `json:"instrs_simulated"`
	SimSeconds      float64 `json:"sim_seconds"`    // aggregate worker-seconds spent simulating
	InstrsPerSec    float64 `json:"instrs_per_sec"` // InstrsSimulated / SimSeconds
	// SampledRuns counts jobs executed in checkpointed sampled mode;
	// SampledIntervals the detailed interval simulations behind them.
	SampledRuns      int64 `json:"sampled_runs"`
	SampledIntervals int64 `json:"sampled_intervals"`
	// TraceCache reports the capture/replay cache when configured.
	TraceCache *tracecache.Stats `json:"trace_cache,omitempty"`
	// Checkpoints reports the architectural checkpoint store.
	Checkpoints *checkpoint.Stats `json:"checkpoints,omitempty"`
}

// HitRatio returns cache hits (including coalesced twins) over all cache
// lookups, in [0, 1].
func (s Stats) HitRatio() float64 {
	total := s.CacheHits + s.Coalesced + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits+s.Coalesced) / float64(total)
}

// Stats snapshots the engine counters.
func (r *Runner) Stats() Stats {
	s := Stats{
		Workers:          r.workers,
		JobsQueued:       r.queued.Load(),
		JobsRunning:      r.running.Load(),
		JobsDone:         r.done.Load(),
		JobsFailed:       r.failed.Load(),
		JobsCancelled:    r.cancelled.Load(),
		SimsExecuted:     r.executed.Load(),
		CacheHits:        r.hits.Load(),
		CacheMisses:      r.misses.Load(),
		Coalesced:        r.coalesced.Load(),
		InstrsSimulated:  r.instrs.Load(),
		SimSeconds:       float64(r.simNanos.Load()) / 1e9,
		SampledRuns:      r.sampledRuns.Load(),
		SampledIntervals: r.sampledIntervals.Load(),
	}
	cs := r.cache.Stats()
	s.CacheEntries, s.CacheCapacity = cs.Len, int(cs.Budget)
	if r.tcache != nil {
		ts := r.tcache.Stats()
		s.TraceCache = &ts
	}
	if r.ckpt != nil {
		cs := r.ckpt.Stats()
		s.Checkpoints = &cs
	}
	if s.SimSeconds > 0 {
		s.InstrsPerSec = float64(s.InstrsSimulated) / s.SimSeconds
	}
	return s
}
