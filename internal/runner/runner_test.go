package runner

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/tracecache"
)

const testInstrs = 4_000

func testJob(workload string, instrs uint64) Job {
	return Job{Workload: workload, Config: config.Baseline(), Instrs: instrs}
}

func TestJobKeyCanonical(t *testing.T) {
	a, err := testJob("perlbmk", testInstrs).Key()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testJob("perlbmk", testInstrs).Key()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical jobs hash differently: %s vs %s", a, b)
	}
	if k, _ := testJob("perlbmk", testInstrs+1).Key(); k == a {
		t.Error("instruction budget not part of the content address")
	}
	if k, _ := testJob("mcf", testInstrs).Key(); k == a {
		t.Error("workload not part of the content address")
	}
	dlvp := Job{Workload: "perlbmk", Config: config.DLVP(), Instrs: testInstrs}
	if k, _ := dlvp.Key(); k == a {
		t.Error("configuration not part of the content address")
	}
}

func TestUnknownWorkloadError(t *testing.T) {
	r := New(Options{Workers: 1})
	_, _, err := r.Run(context.Background(), testJob("ghost", testInstrs))
	var uw *UnknownWorkloadError
	if !errors.As(err, &uw) {
		t.Fatalf("err = %v, want UnknownWorkloadError", err)
	}
	if uw.Name != "ghost" {
		t.Errorf("error names %q, want ghost", uw.Name)
	}
}

// TestCacheSingleExecution locks the tentpole property: an identical job
// submitted twice returns byte-identical RunStats with exactly one
// simulation executed.
func TestCacheSingleExecution(t *testing.T) {
	r := New(Options{Workers: 2})
	ctx := context.Background()
	job := testJob("perlbmk", testInstrs)

	first, cached, err := r.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first run reported as cached")
	}
	second, cached, err := r.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second identical run not served from cache")
	}

	fb, _ := json.Marshal(first)
	sb, _ := json.Marshal(second)
	if string(fb) != string(sb) {
		t.Errorf("cached result not byte-identical:\n%s\n%s", fb, sb)
	}

	s := r.Stats()
	if s.SimsExecuted != 1 {
		t.Errorf("SimsExecuted = %d, want 1", s.SimsExecuted)
	}
	if s.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", s.CacheHits)
	}
	if s.CacheMisses != 1 {
		t.Errorf("CacheMisses = %d, want 1", s.CacheMisses)
	}
	if got := s.HitRatio(); got != 0.5 {
		t.Errorf("HitRatio = %v, want 0.5", got)
	}
	if s.InstrsSimulated == 0 || s.SimSeconds <= 0 || s.InstrsPerSec <= 0 {
		t.Errorf("throughput counters not populated: %+v", s)
	}
}

func TestCacheDisabled(t *testing.T) {
	r := New(Options{Workers: 1, CacheEntries: -1})
	ctx := context.Background()
	job := testJob("perlbmk", testInstrs)
	for i := 0; i < 2; i++ {
		if _, cached, err := r.Run(ctx, job); err != nil || cached {
			t.Fatalf("run %d: cached=%v err=%v, want fresh execution", i, cached, err)
		}
	}
	if s := r.Stats(); s.SimsExecuted != 2 || s.CacheCapacity != 0 {
		t.Errorf("stats = %+v, want 2 executions and no cache", s)
	}
}

// TestCoalescing submits the same job concurrently on an idle pool and
// checks only one simulation ran.
func TestCoalescing(t *testing.T) {
	r := New(Options{Workers: runtime.NumCPU()})
	ctx := context.Background()
	job := testJob("mcf", testInstrs)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = r.Run(ctx, job)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if s := r.Stats(); s.SimsExecuted != 1 {
		t.Errorf("SimsExecuted = %d, want 1 (rest cached or coalesced)", s.SimsExecuted)
	}
}

// matrixJobs builds a small (workload x config) matrix with distinct cache
// keys.
func matrixJobs() []Job {
	var jobs []Job
	for _, w := range []string{"perlbmk", "mcf", "nat"} {
		for _, cfg := range []config.Core{config.Baseline(), config.DLVP()} {
			jobs = append(jobs, Job{Workload: w, Config: cfg, Instrs: testInstrs})
		}
	}
	return jobs
}

// TestRunAllWorkerCountIndependence locks deterministic aggregation: the
// same matrix run on one worker and on NumCPU workers yields identical
// results in identical order.
func TestRunAllWorkerCountIndependence(t *testing.T) {
	ctx := context.Background()
	serial, err := New(Options{Workers: 1}).RunAll(ctx, matrixJobs(), Matrix{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(Options{Workers: runtime.NumCPU()}).RunAll(ctx, matrixJobs(), Matrix{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("matrix results depend on worker count")
	}
}

func TestRunAllProgress(t *testing.T) {
	var calls []int
	_, err := New(Options{Workers: 2}).RunAll(context.Background(), matrixJobs(), Matrix{
		Progress: func(done, total int) {
			if total != 6 {
				t.Errorf("total = %d, want 6", total)
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 6 || calls[len(calls)-1] != 6 {
		t.Errorf("progress calls = %v, want 1..6", calls)
	}
}

// TestRunAllCancelMidMatrix cancels after the first completion and checks
// that queued jobs never start (the pool acquires its slot inside the
// worker, under the caller's context).
func TestRunAllCancelMidMatrix(t *testing.T) {
	r := New(Options{Workers: 1, CacheEntries: -1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Plenty of distinct jobs so cancellation lands while most still queue.
	var jobs []Job
	for _, w := range []string{"perlbmk", "mcf", "nat", "gap", "twolf", "soplex"} {
		for _, instrs := range []uint64{testInstrs, testInstrs + 1, testInstrs + 2} {
			jobs = append(jobs, testJob(w, instrs))
		}
	}
	_, err := r.RunAll(ctx, jobs, Matrix{
		Progress: func(done, total int) {
			if done == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := r.Stats(); s.SimsExecuted >= int64(len(jobs)) {
		t.Errorf("SimsExecuted = %d of %d; cancellation did not stop the matrix", s.SimsExecuted, len(jobs))
	}
}

// TestWaiterCancellationAccounting locks the failure-accounting contract:
// a caller that cancels while coalesced-waiting on another job's flight is
// counted as cancelled, not failed (the underlying simulation is
// unaffected), and a lead cancelled while queued is counted once while
// its live waiter runs the job itself.
func TestWaiterCancellationAccounting(t *testing.T) {
	r := New(Options{Workers: 1, CacheEntries: -1})
	bg := context.Background()

	// Occupy the single worker slot so the flight under test stays queued.
	// The budget must keep the worker busy for the whole cancellation
	// sequence below (a few hundred ms of wall clock even on a fast core).
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		if _, _, err := r.Run(bg, testJob("gap", 3_000_000)); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	waitFor(t, func() bool { return r.Stats().JobsRunning == 1 })

	// Lead for a distinct job: creates the flight, then blocks in the
	// queue behind the blocker.
	leadCtx, cancelLead := context.WithCancel(bg)
	defer cancelLead()
	leadErr := make(chan error, 1)
	job := testJob("mcf", testInstrs)
	go func() {
		_, _, err := r.Run(leadCtx, job)
		leadErr <- err
	}()
	waitFor(t, func() bool { return r.Stats().JobsQueued == 1 })

	// Two waiters coalesce onto the lead's flight; cancel the first.
	waiterCtx, cancelWaiter := context.WithCancel(bg)
	waiter1Err := make(chan error, 1)
	go func() {
		_, _, err := r.Run(waiterCtx, job)
		waiter1Err <- err
	}()
	waiter2Err := make(chan error, 1)
	go func() {
		_, _, err := r.Run(bg, job)
		waiter2Err <- err
	}()
	waitFor(t, func() bool { return r.Stats().JobsQueued == 1 })
	// Give both waiters a moment to attach to the flight; whichever path
	// the cancellation lands on (coalesced wait or submission entry), it
	// must count as cancelled, never failed.
	time.Sleep(50 * time.Millisecond)

	cancelWaiter()
	if err := <-waiter1Err; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter 1 err = %v, want context.Canceled", err)
	}
	if s := r.Stats(); s.JobsCancelled != 1 || s.JobsFailed != 0 {
		t.Errorf("after waiter cancel: cancelled=%d failed=%d, want 1/0", s.JobsCancelled, s.JobsFailed)
	}

	// Now cancel the lead while it is still queued: the lead's
	// cancellation is accounted once, and the remaining waiter, whose own
	// context is live, leads the job itself instead of inheriting it.
	cancelLead()
	if err := <-leadErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("lead err = %v, want context.Canceled", err)
	}
	if err := <-waiter2Err; err != nil {
		t.Fatalf("waiter 2 err = %v, want its own run to complete", err)
	}
	<-blockerDone
	s := r.Stats()
	if s.JobsCancelled != 2 {
		t.Errorf("JobsCancelled = %d, want 2 (one waiter + one queued lead)", s.JobsCancelled)
	}
	if s.JobsFailed != 0 {
		t.Errorf("JobsFailed = %d, want 0: cancellations must not count as failures", s.JobsFailed)
	}
	if s.SimsExecuted != 2 {
		t.Errorf("SimsExecuted = %d, want 2 (the blocker + waiter 2's run)", s.SimsExecuted)
	}
}

// doneProbe is a context that reports the first call to Done. A coalesced
// waiter first calls Done when it selects on its twin's flight, so the
// probe firing means the waiter has attached to that flight.
type doneProbe struct {
	context.Context
	once   sync.Once
	called chan struct{}
}

func (c *doneProbe) Done() <-chan struct{} {
	c.once.Do(func() { close(c.called) })
	return c.Context.Done()
}

// TestWaiterOutlivesCancelledLead is the inherited-cancellation
// regression: a waiter coalesced onto a flight whose lead is cancelled
// while queued must not return the lead's context.Canceled — its own
// context is live, so it re-leads the job and gets the result.
func TestWaiterOutlivesCancelledLead(t *testing.T) {
	r := New(Options{Workers: 1})
	r.sem <- struct{}{} // hold the only worker slot: the lead stays queued
	job := testJob("mcf", testInstrs)

	leadCtx, cancelLead := context.WithCancel(context.Background())
	defer cancelLead()
	leadErr := make(chan error, 1)
	go func() {
		_, _, err := r.Run(leadCtx, job)
		leadErr <- err
	}()
	waitFor(t, func() bool { return r.Stats().JobsQueued == 1 })

	waiter := &doneProbe{Context: context.Background(), called: make(chan struct{})}
	type outcome struct {
		instrs uint64
		err    error
	}
	got := make(chan outcome, 1)
	go func() {
		st, _, err := r.Run(waiter, job)
		got <- outcome{st.Instructions, err}
	}()
	<-waiter.called

	cancelLead()
	if err := <-leadErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("lead err = %v, want context.Canceled", err)
	}
	<-r.sem // free the slot for the waiter's own run
	o := <-got
	if o.err != nil {
		t.Fatalf("waiter err = %v, want its own run to complete", o.err)
	}
	if o.instrs == 0 {
		t.Error("waiter returned empty statistics")
	}
	if s := r.Stats(); s.JobsCancelled != 1 || s.JobsFailed != 0 || s.SimsExecuted != 1 {
		t.Errorf("cancelled=%d failed=%d executed=%d, want 1/0/1", s.JobsCancelled, s.JobsFailed, s.SimsExecuted)
	}
}

// waitFor polls cond for up to ~5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never reached")
}

// TestRunCancelledContext checks a pre-cancelled submission never runs.
func TestRunCancelledContext(t *testing.T) {
	r := New(Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.Run(ctx, testJob("perlbmk", testInstrs)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := r.Stats(); s.SimsExecuted != 0 {
		t.Errorf("SimsExecuted = %d, want 0", s.SimsExecuted)
	}
}

// TestCancelledJobStopsSimulating: a job whose context ends while its core
// simulates stops the core and returns the context's error instead of
// running out a budget of 2^40 instructions, and nothing is cached. The
// sampled job's one interval spans the budget, so it has no checkpoint to
// build and spends all of it in the detailed core. The chained job's 8
// intervals first build a checkpoint chain whose first link sits about
// 2^36 instructions in, so it is cancelled while it emulates to it. The
// captured job's 9M instructions fit a 512 MiB trace cache, so it is
// cancelled while it captures its stream, and the cache keeps nothing.
func TestCancelledJobStopsSimulating(t *testing.T) {
	const huge = 1 << 40
	sampled := testJob("gcc", huge)
	sampled.Sampling = &SamplingSpec{Intervals: 1, MeasuredInstrs: huge}
	chained := testJob("gcc", huge)
	chained.Sampling = &SamplingSpec{Intervals: 8}
	for name, job := range map[string]Job{"full": testJob("gcc", huge), "sampled": sampled, "chained": chained,
		"captured": testJob("gcc", 9_000_000)} {
		t.Run(name, func(t *testing.T) {
			var tc *tracecache.Cache
			if name == "captured" {
				tc = tracecache.New(512 << 20)
			}
			r := New(Options{Workers: 1, TraceCache: tc})
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, _, err := r.Run(ctx, job)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("Run returned %v after it started, want within 1s", d)
			}
			key, err := job.Key()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := r.CachedResult(key); ok {
				t.Error("a stopped run was cached")
			}
			if s := r.Stats(); s.JobsRunning != 0 || s.SimsExecuted != 0 {
				t.Errorf("running=%d executed=%d after the stop, want 0/0", s.JobsRunning, s.SimsExecuted)
			}
			if s := tc.Stats(); s.Entries != 0 || s.ResidentBytes != 0 || s.CapturingBytes != 0 {
				t.Errorf("trace cache %+v after the stop, want no capture resident or reserved", s)
			}
		})
	}
}

// TestEngineConstructionAllocs bounds what cmd/experiments pays to build an
// engine before it simulates (perfbench's regen setup_s): a 512 MiB trace
// cache plus a default runner. The caches allocate their maps on first
// use, so construction stays within the 14 allocations it cost when each
// store kept its own maps.
func TestEngineConstructionAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		New(Options{TraceCache: tracecache.New(512 << 20)})
	})
	if allocs > 14 {
		t.Errorf("engine construction = %v allocations, want <= 14", allocs)
	}
}

// A default engine attaches the flight-recorder series and the site
// profile to its results, caches them content-addressed alongside the
// stats, and exposes nothing live once the job is done.
func TestRunResultRecordsTimeline(t *testing.T) {
	r := New(Options{})
	job := Job{Workload: "perlbmk", Config: config.DLVP(), Instrs: 300_000}
	res, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first run reported cached")
	}
	if res.Timeline == nil {
		t.Fatal("no timeline on a default engine's result")
	}
	if res.Sites == nil {
		t.Fatal("no site profile on a default engine's result")
	}
	if got := res.Timeline.Totals()[metrics.Instructions]; got != res.Stats.Instructions {
		t.Errorf("timeline totals %d != stats %d", got, res.Stats.Instructions)
	}
	if len(res.Timeline.Samples) < 2 {
		t.Errorf("samples = %d, want >= 2 over %d instructions", len(res.Timeline.Samples), job.Instrs)
	}

	again, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second identical run not served from cache")
	}
	if again.Timeline == nil || len(again.Timeline.Samples) != len(res.Timeline.Samples) {
		t.Error("cached result lost its timeline")
	}

	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.LiveTimeline(key); got != nil {
		t.Error("LiveTimeline non-nil after completion")
	}
	if got, ok := r.CachedResult(key); !ok || got.Timeline == nil {
		t.Errorf("CachedResult = %v/%v, want timeline-bearing hit", got.Timeline, ok)
	}
}

// TestPanickingSimulationReleasesState runs a job whose configuration the
// runner does not validate and the core cannot build (a zero-byte L1D):
// the panic reaches the caller, and the engine must not count the job as
// running afterwards.
func TestPanickingSimulationReleasesState(t *testing.T) {
	r := New(Options{})
	job := testJob("perlbmk", testInstrs)
	job.Config.Mem.L1D.SizeBytes = 0
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a zero-byte L1D simulated without panicking")
			}
		}()
		r.Run(context.Background(), job)
	}()
	if n := r.Stats().JobsRunning; n != 0 {
		t.Errorf("JobsRunning = %d after the simulation panicked, want 0", n)
	}
}
