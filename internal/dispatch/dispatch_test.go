package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/obs"
	"dlvp/internal/runner"
)

// fakeBackend is a scriptable in-memory Backend for dispatcher tests.
type fakeBackend struct {
	name  string
	calls atomic.Int64

	mu        sync.Mutex
	healthErr error
	runFn     func(ctx context.Context, job runner.Job) (metrics.RunStats, bool, error)
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) RunResult(ctx context.Context, job runner.Job) (runner.Result, bool, error) {
	f.calls.Add(1)
	f.mu.Lock()
	fn := f.runFn
	f.mu.Unlock()
	if fn != nil {
		st, cached, err := fn(ctx, job)
		return runner.Result{Stats: st}, cached, err
	}
	return runner.Result{Stats: metrics.RunStats{Workload: job.Workload, Instructions: job.Instrs}}, false, nil
}

func (f *fakeBackend) CheckHealth(context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.healthErr
}

func (f *fakeBackend) setHealth(err error) {
	f.mu.Lock()
	f.healthErr = err
	f.mu.Unlock()
}

func (f *fakeBackend) setRun(fn func(ctx context.Context, job runner.Job) (metrics.RunStats, bool, error)) {
	f.mu.Lock()
	f.runFn = fn
	f.mu.Unlock()
}

func failRetryable(name string) func(context.Context, runner.Job) (metrics.RunStats, bool, error) {
	return func(context.Context, runner.Job) (metrics.RunStats, bool, error) {
		return metrics.RunStats{}, false, &TransportError{Backend: name, Err: errors.New("connection refused")}
	}
}

func baselineJob(instrs uint64) runner.Job {
	cfg, _ := config.ByScheme("baseline")
	return runner.Job{Workload: "test", Config: cfg, Instrs: instrs}
}

// jobRankedFirstOn searches instruction budgets until the job's rendezvous
// ranking puts the wanted backend first (and, when requireLocalLast is
// set, the local backend last), so tests can steer routing without
// depending on hash internals.
func jobRankedFirstOn(t *testing.T, d *Dispatcher, want string, requireLocalLast bool) runner.Job {
	t.Helper()
	for instrs := uint64(1); instrs < 10_000; instrs++ {
		job := baselineJob(instrs)
		key, err := job.Key()
		if err != nil {
			t.Fatal(err)
		}
		order := rank(d.states, key)
		if order[0].name != want {
			continue
		}
		if requireLocalLast && !order[len(order)-1].local {
			continue
		}
		return job
	}
	t.Fatalf("no job ranks %s first", want)
	return runner.Job{}
}

func newTestDispatcher(t *testing.T, opts Options) (*Dispatcher, *fakeBackend, []*fakeBackend) {
	t.Helper()
	return newTestRing(t, opts, 2)
}

// newTestRing builds a dispatcher over a local fake and n peer fakes.
func newTestRing(t *testing.T, opts Options, n int) (*Dispatcher, *fakeBackend, []*fakeBackend) {
	t.Helper()
	local := &fakeBackend{name: "local"}
	var peers []*fakeBackend
	for i := 0; i < n; i++ {
		p := &fakeBackend{name: fmt.Sprintf("http://peer-%c:8080", 'a'+i)}
		peers = append(peers, p)
		opts.Peers = append(opts.Peers, p)
	}
	opts.Local = local
	if opts.HealthInterval == 0 {
		opts.HealthInterval = time.Hour // tests drive probes explicitly
	}
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, local, peers
}

// TestDispatchRetryMarkersAndSpanTree: a retryable failure records a
// dispatch.retry marker span, and per-attempt spans parent under the
// route span so the assembled trace shows one subtree per attempt.
func TestDispatchRetryMarkersAndSpanTree(t *testing.T) {
	ob := obs.NewObserver(nil)
	d, _, peers := newTestDispatcher(t, Options{Obs: ob})
	peers[0].setRun(failRetryable(peers[0].name))
	peers[1].setRun(failRetryable(peers[1].name))

	ob.Tracer.Begin("tr")
	ctx := obs.ContextWithTrace(context.Background(), ob.Tracer, "tr")
	job := jobRankedFirstOn(t, d, peers[0].name, true)
	if _, _, err := d.RunResult(ctx, job); err != nil {
		t.Fatalf("local fallback should have saved the job: %v", err)
	}

	view, ok := ob.Tracer.Get("tr")
	if !ok {
		t.Fatal("trace missing")
	}
	var routeID string
	retries, attempts := 0, 0
	for _, sp := range view.Spans {
		switch sp.Name {
		case "dispatch.route":
			routeID = sp.SpanID
		case "dispatch.retry":
			retries++
			if sp.Marker != obs.MarkerRetry {
				t.Errorf("retry span marker = %q, want %q", sp.Marker, obs.MarkerRetry)
			}
		}
	}
	if retries == 0 {
		t.Error("no dispatch.retry marker spans recorded")
	}
	if routeID == "" {
		t.Fatal("no dispatch.route span recorded")
	}
	for _, sp := range view.Spans {
		if sp.Name == "dispatch.attempt" {
			attempts++
			if sp.ParentID != routeID {
				t.Errorf("attempt span parent = %q, want route %q", sp.ParentID, routeID)
			}
		}
	}
	if attempts < 2 {
		t.Errorf("attempt spans = %d, want >= 2 (failed peer + fallback)", attempts)
	}
}

// TestRankStability: identical keys produce identical orders, different
// keys spread across the ring, and removing one backend never reorders
// the survivors (the rendezvous property that makes ejection cheap).
func TestRankStability(t *testing.T) {
	states := []*backendState{
		newBackendState(&fakeBackend{name: "a"}, true, 0),
		newBackendState(&fakeBackend{name: "b"}, false, 4),
		newBackendState(&fakeBackend{name: "c"}, false, 4),
	}
	first := make(map[string]int)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("job-%d", i)
		got := rank(states, key)
		for j := 0; j < 10; j++ {
			again := rank(states, key)
			for k := range got {
				if got[k].name != again[k].name {
					t.Fatalf("key %q rank unstable: %v vs %v", key, got[k].name, again[k].name)
				}
			}
		}
		first[got[0].name]++

		// Drop the winner: the relative order of the other two must hold.
		var without []*backendState
		for _, bs := range states {
			if bs != got[0] {
				without = append(without, bs)
			}
		}
		sub := rank(without, key)
		if sub[0].name != got[1].name || sub[1].name != got[2].name {
			t.Fatalf("key %q: removing %s reordered survivors: %s,%s vs %s,%s",
				key, got[0].name, sub[0].name, sub[1].name, got[1].name, got[2].name)
		}
	}
	for _, bs := range states {
		if first[bs.name] == 0 {
			t.Errorf("backend %s never ranked first over 200 keys", bs.name)
		}
	}
}

// TestAffinityRouting: repeats of one job land on one backend.
func TestAffinityRouting(t *testing.T) {
	d, local, peers := newTestDispatcher(t, Options{})
	job := baselineJob(42)
	for i := 0; i < 8; i++ {
		if _, _, err := d.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	nonZero := 0
	for _, b := range []*fakeBackend{local, peers[0], peers[1]} {
		if n := b.calls.Load(); n > 0 {
			nonZero++
			if n != 8 {
				t.Errorf("backend %s got %d of 8 calls", b.name, n)
			}
		}
	}
	if nonZero != 1 {
		t.Errorf("job spread across %d backends, want exactly 1", nonZero)
	}
}

// TestRetryBudgetThenLocalFallback: with three peers failing retryably
// ahead of the local engine, the dispatcher spends its budget of three on
// the peers and still completes on the guaranteed local fallback. One
// request is one passive failure signal per peer: with a threshold of two
// no peer is ejected.
func TestRetryBudgetThenLocalFallback(t *testing.T) {
	d, local, peers := newTestRing(t, Options{}, retryBudget)
	for _, p := range peers {
		p.setRun(failRetryable(p.name))
	}
	job := jobRankedFirstOn(t, d, peers[0].name, true)

	st, _, err := d.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("local fallback did not save the run: %v", err)
	}
	if st.Instructions != job.Instrs {
		t.Errorf("stats not from fake local: %+v", st)
	}
	for _, p := range peers {
		if got := p.calls.Load(); got != 1 {
			t.Errorf("%s calls = %d, want exactly 1", p.name, got)
		}
		if !d.TargetHealthy(p.name) {
			t.Errorf("%s ejected by one request's single failure", p.name)
		}
	}
	if local.calls.Load() != 1 {
		t.Errorf("local calls = %d, want 1", local.calls.Load())
	}
}

// TestRetryBudgetExhaustion: when the local engine fails too, after the
// budget went to three failing peers, the last error surfaces instead of
// hanging or retrying forever.
func TestRetryBudgetExhaustion(t *testing.T) {
	d, local, peers := newTestRing(t, Options{}, retryBudget)
	for _, p := range peers {
		p.setRun(failRetryable(p.name))
	}
	localErr := errors.New("engine on fire")
	local.setRun(func(context.Context, runner.Job) (metrics.RunStats, bool, error) {
		return metrics.RunStats{}, false, localErr
	})
	job := jobRankedFirstOn(t, d, peers[0].name, true)
	_, _, err := d.Run(context.Background(), job)
	if !errors.Is(err, localErr) {
		t.Fatalf("err = %v, want local engine error", err)
	}
	if local.calls.Load() != 1 {
		t.Errorf("local calls = %d, want 1", local.calls.Load())
	}
}

// TestNonRetryableStopsRouting: a 4xx from the first backend propagates
// immediately — a bad request fails everywhere, so re-routing would only
// triple the error rate.
func TestNonRetryableStopsRouting(t *testing.T) {
	d, local, peers := newTestDispatcher(t, Options{})
	reject := &RemoteError{Backend: peers[0].name, Status: 400, Msg: "unknown workload"}
	peers[0].setRun(func(context.Context, runner.Job) (metrics.RunStats, bool, error) {
		return metrics.RunStats{}, false, reject
	})
	job := jobRankedFirstOn(t, d, peers[0].name, false)
	_, _, err := d.Run(context.Background(), job)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 400 {
		t.Fatalf("err = %v, want the 400 RemoteError", err)
	}
	if local.calls.Load()+peers[1].calls.Load() != 0 {
		t.Error("non-retryable error was re-routed")
	}
}

// TestEjectionAndReinstatement drives the active health loop: probes
// eject a failing peer after the threshold, routing skips it, and a
// recovering probe reinstates it.
func TestEjectionAndReinstatement(t *testing.T) {
	d, _, peers := newTestDispatcher(t, Options{})
	peers[0].setHealth(errors.New("probe refused"))

	d.ProbeAll(context.Background())
	if st := d.Status(); st.HealthyPeers != 2 {
		t.Fatalf("one failure below threshold already ejected: %+v", st)
	}
	d.ProbeAll(context.Background()) // ProbeAll ignores the backoff window
	st := d.Status()
	if st.HealthyPeers != 1 {
		t.Fatalf("healthy peers = %d after threshold, want 1", st.HealthyPeers)
	}
	var ejected *BackendStatus
	for i := range st.Backends {
		if st.Backends[i].Ejected {
			ejected = &st.Backends[i]
		}
	}
	if ejected == nil || ejected.Name != peers[0].name {
		t.Fatalf("ejected backend missing from status: %+v", st.Backends)
	}
	if ejected.ConsecutiveFailures < 2 || ejected.LastError == "" {
		t.Errorf("ejected status lacks failure detail: %+v", ejected)
	}

	// Jobs whose affinity points at the ejected peer re-route.
	job := jobRankedFirstOn(t, d, peers[0].name, false)
	if _, _, err := d.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if peers[0].calls.Load() != 0 {
		t.Error("ejected backend still received work")
	}

	// Recovery: the next probe reinstates.
	peers[0].setHealth(nil)
	d.ProbeAll(context.Background())
	if st := d.Status(); st.HealthyPeers != 2 {
		t.Fatalf("recovered peer not reinstated: %+v", st)
	}
	if _, _, err := d.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if peers[0].calls.Load() == 0 {
		t.Error("reinstated backend received no work")
	}
}

// TestPassiveEjection: failed forwards eject a peer without waiting for
// the probe loop.
func TestPassiveEjection(t *testing.T) {
	d, _, peers := newTestDispatcher(t, Options{})
	peers[0].setRun(failRetryable(peers[0].name))
	job := jobRankedFirstOn(t, d, peers[0].name, false)
	for i := 0; i < 2; i++ {
		if _, _, err := d.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Status()
	if st.HealthyPeers != 1 {
		t.Fatalf("peer not passively ejected after %d failures: %+v", peers[0].calls.Load(), st)
	}
}

// TestLocalFallbackAllEjected: with every peer out of the ring the
// dispatcher still completes jobs in-process.
func TestLocalFallbackAllEjected(t *testing.T) {
	d, local, peers := newTestDispatcher(t, Options{})
	peers[0].setHealth(errors.New("down"))
	peers[1].setHealth(errors.New("down"))
	for i := 0; i < failThreshold; i++ {
		d.ProbeAll(context.Background())
	}
	if st := d.Status(); st.HealthyPeers != 0 {
		t.Fatalf("expected 0 healthy peers: %+v", st)
	}
	for i := uint64(1); i <= 10; i++ {
		if _, _, err := d.Run(context.Background(), baselineJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	if local.calls.Load() != 10 {
		t.Errorf("local calls = %d, want 10", local.calls.Load())
	}
}

// TestAcquireBoundedQueue exercises the in-flight limit and bounded-queue
// saturation path deterministically at the backendState level.
func TestAcquireBoundedQueue(t *testing.T) {
	bs := newBackendState(&fakeBackend{name: "q"}, false, 1)
	release, err := bs.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	queued := make(chan struct{})
	go func() {
		rel, err := bs.acquire(context.Background(), 1)
		if err != nil {
			t.Errorf("queued acquire failed: %v", err)
			close(queued)
			return
		}
		close(queued)
		rel()
	}()
	// Wait until the second acquire is queued.
	deadline := time.Now().Add(2 * time.Second)
	for bs.waiting.Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if bs.waiting.Load() != 1 {
		t.Fatal("second acquire never queued")
	}
	// Queue is full: the third acquire saturates immediately.
	if _, err := bs.acquire(context.Background(), 1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	release()
	<-queued

	// Cancellation while queued returns the context error.
	release2, err := bs.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := bs.acquire(ctx, 1)
		cancelled <- err
	}()
	for bs.waiting.Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel err = %v", err)
	}
	release2()
}

// TestSaturationReroutes: a peer with full slots and a full queue sheds
// load to the rest of the ring without consuming retry budget.
func TestSaturationReroutes(t *testing.T) {
	d, local, peers := newTestDispatcher(t, Options{})
	block := make(chan struct{})
	peers[0].setRun(func(ctx context.Context, job runner.Job) (metrics.RunStats, bool, error) {
		<-block
		return metrics.RunStats{}, false, nil
	})
	job := jobRankedFirstOn(t, d, peers[0].name, false)

	var wg sync.WaitGroup
	occupy := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, _ = d.Run(context.Background(), job)
			}()
		}
	}
	// Occupy every slot.
	occupy(maxInFlight)
	deadline := time.Now().Add(5 * time.Second)
	for peers[0].calls.Load() != maxInFlight && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Occupy every queue seat.
	occupy(maxQueue)
	var sat *backendState
	for _, bs := range d.states {
		if bs.name == peers[0].name {
			sat = bs
		}
	}
	for sat.waiting.Load() != maxQueue && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// This submission finds slot+queue full and must complete elsewhere.
	if _, _, err := d.Run(context.Background(), job); err != nil {
		t.Fatalf("saturated submission failed instead of re-routing: %v", err)
	}
	if local.calls.Load()+peers[1].calls.Load() == 0 {
		t.Error("saturated submission was not re-routed")
	}
	if sat.saturated.Load() == 0 {
		t.Error("saturation not accounted")
	}
	close(block)
	wg.Wait()
}

// TestRunAll: a matrix fanned out over the dispatcher (the clustered
// experiment path) preserves submission order and reports progress.
func TestRunAll(t *testing.T) {
	d, _, _ := newTestDispatcher(t, Options{})
	jobs := make([]runner.Job, 20)
	for i := range jobs {
		jobs[i] = baselineJob(uint64(i + 1))
	}
	var progress atomic.Int64
	stats, err := runner.FanOut(context.Background(), jobs, runner.Matrix{
		Progress: func(done, total int) { progress.Add(1) },
	}, d.Run)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stats {
		if st.Instructions != uint64(i+1) {
			t.Fatalf("result %d out of order: %+v", i, st)
		}
	}
	if progress.Load() != 20 {
		t.Errorf("progress callbacks = %d, want 20", progress.Load())
	}
}

// TestRunAllCancellation: cancelling a matrix fanned out over the
// dispatcher stops routing — attempts stalled on every backend return the
// context error instead of retrying or falling back.
func TestRunAllCancellation(t *testing.T) {
	d, local, peers := newTestDispatcher(t, Options{})
	stall := func(ctx context.Context, job runner.Job) (metrics.RunStats, bool, error) {
		<-ctx.Done()
		return metrics.RunStats{}, false, ctx.Err()
	}
	local.setRun(stall)
	peers[0].setRun(stall)
	peers[1].setRun(stall)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	jobs := []runner.Job{baselineJob(1), baselineJob(2)}
	if _, err := runner.FanOut(ctx, jobs, runner.Matrix{}, d.Run); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestNewValidation: a dispatcher without a local backend or with
// duplicate names is a construction error.
func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("nil Local accepted")
	}
	local := &fakeBackend{name: "x"}
	if _, err := New(Options{Local: local, Peers: []Backend{&fakeBackend{name: "x"}}}); err == nil {
		t.Error("duplicate backend name accepted")
	}
}

// TestRunOnPinsTarget: shard-level submission executes on the named
// member only, never re-routes, and rejects unknown names.
func TestRunOnPinsTarget(t *testing.T) {
	d, local, peers := newTestDispatcher(t, Options{})
	job := baselineJob(100)

	if _, _, err := d.RunOn(context.Background(), peers[1].name, job); err != nil {
		t.Fatal(err)
	}
	if peers[1].calls.Load() != 1 || peers[0].calls.Load() != 0 || local.calls.Load() != 0 {
		t.Fatalf("calls local=%d a=%d b=%d, want only b",
			local.calls.Load(), peers[0].calls.Load(), peers[1].calls.Load())
	}

	// A failing pinned target reports the error instead of re-routing.
	peers[0].setRun(failRetryable(peers[0].name))
	if _, _, err := d.RunOn(context.Background(), peers[0].name, job); err == nil {
		t.Fatal("want error from pinned failing target")
	}
	if local.calls.Load() != 0 {
		t.Fatal("RunOn fell back to local")
	}

	if _, _, err := d.RunOn(context.Background(), "nope", job); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("err = %v, want ErrUnknownBackend", err)
	}
}

// TestTargetSurface covers the ring introspection the matrix
// orchestrator schedules with.
func TestTargetSurface(t *testing.T) {
	d, _, peers := newTestDispatcher(t, Options{})
	targets := d.Targets()
	if len(targets) != 3 || targets[0] != "local" {
		t.Fatalf("targets = %v, want local first of 3", targets)
	}
	if d.LocalTarget() != "local" {
		t.Fatalf("local target = %s", d.LocalTarget())
	}

	order := d.RankTargets("some-shard-key")
	if len(order) != 3 {
		t.Fatalf("rank = %v", order)
	}
	key, _ := baselineJob(42).Key()
	a, b := d.RankTargets(key), d.RankTargets(key)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank unstable: %v vs %v", a, b)
		}
	}

	if !d.TargetHealthy("local") || !d.TargetHealthy(peers[0].name) {
		t.Fatal("fresh ring members must be healthy")
	}
	if d.TargetHealthy("nope") {
		t.Fatal("unknown member reported healthy")
	}

	// Ejection flips TargetHealthy; rank still lists the member so the
	// orchestrator can use it as a failover position.
	peers[0].setRun(failRetryable(peers[0].name))
	job := jobRankedFirstOn(t, d, peers[0].name, false)
	for i := 0; i < failThreshold; i++ {
		if _, _, err := d.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	if d.TargetHealthy(peers[0].name) {
		t.Fatal("peer healthy after ejection")
	}
	found := false
	for _, name := range d.RankTargets(key) {
		if name == peers[0].name {
			found = true
		}
	}
	if !found {
		t.Fatal("ejected member missing from rank order")
	}
}
