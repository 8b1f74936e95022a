package matrix

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"dlvp/internal/metrics"
	"dlvp/internal/obs"
	"dlvp/internal/runner"
)

var testSchemes = []string{"baseline", "dlvp"}

func testSpec(workloads ...string) Spec {
	return Spec{Workloads: workloads, Schemes: testSchemes, Instrs: 20_000}
}

// fakeCluster is a scriptable Cluster for scheduler tests: fabricated
// deterministic stats, per-target health toggles, and call accounting.
type fakeCluster struct {
	mu        sync.Mutex
	targets   []string
	unhealthy map[string]bool
	delay     map[string]time.Duration // per-target run latency
	fail      map[string]error         // per-target hard failure
	gate      map[string]chan struct{} // per-workload block-until-closed
	calls     map[string]int           // workload -> RunOn invocations
	fails     map[string]int           // target -> RunOn failures so far
	ejectAt   int                      // mimic dispatch passive ejection after N failures
	rankFn    func(key string) []string
}

func newFakeCluster(targets ...string) *fakeCluster {
	return &fakeCluster{
		targets:   targets,
		unhealthy: make(map[string]bool),
		delay:     make(map[string]time.Duration),
		fail:      make(map[string]error),
		gate:      make(map[string]chan struct{}),
		calls:     make(map[string]int),
		fails:     make(map[string]int),
	}
}

func (f *fakeCluster) Targets() []string { return append([]string(nil), f.targets...) }

func (f *fakeCluster) RankTargets(key string) []string {
	if f.rankFn != nil {
		return f.rankFn(key)
	}
	// Deterministic rendezvous: sort by FNV(name, key), like the real ring.
	out := append([]string(nil), f.targets...)
	score := func(name string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write([]byte(key))
		return h.Sum64()
	}
	sort.Slice(out, func(i, j int) bool { return score(out[i]) > score(out[j]) })
	return out
}

func (f *fakeCluster) TargetHealthy(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.unhealthy[name] {
		return false
	}
	for _, t := range f.targets {
		if t == name {
			return true
		}
	}
	return false
}

// fabricate returns stats that are a pure function of the job, so any
// execution order or placement yields identical tables.
func fabricate(job runner.Job) metrics.RunStats {
	key, _ := job.Key()
	h := fnv.New64a()
	h.Write([]byte(key))
	seed := h.Sum64()
	return metrics.RunStats{
		Workload:     job.Workload,
		Cycles:       job.Instrs/2 + seed%10_000,
		Instructions: job.Instrs,
		Loads:        job.Instrs / 4,
	}
}

func (f *fakeCluster) RunOn(ctx context.Context, name string, job runner.Job) (runner.Result, bool, error) {
	f.mu.Lock()
	f.calls[job.Workload]++
	delay := f.delay[name]
	failErr := f.fail[name]
	gate := f.gate[job.Workload]
	f.mu.Unlock()

	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return runner.Result{}, false, ctx.Err()
		}
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return runner.Result{}, false, ctx.Err()
		}
	}
	if failErr != nil {
		f.mu.Lock()
		f.fails[name]++
		if f.ejectAt > 0 && f.fails[name] >= f.ejectAt {
			f.unhealthy[name] = true
		}
		f.mu.Unlock()
		return runner.Result{}, false, failErr
	}
	if ctx.Err() != nil {
		return runner.Result{}, false, ctx.Err()
	}
	return runner.Result{Stats: fabricate(job)}, false, nil
}

func (f *fakeCluster) callCount(workload string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[workload]
}

func newTestOrchestrator(t *testing.T, c Cluster, store *Store) *Orchestrator {
	t.Helper()
	o := New(Options{Cluster: c, Store: store})
	t.Cleanup(o.Close)
	return o
}

func waitDone(t testing.TB, m *Matrix) View {
	t.Helper()
	select {
	case <-m.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("matrix %s did not finish: %+v", m.ID(), m.View().Counts)
	}
	return m.View()
}

func TestNewPlanShardsByWorkload(t *testing.T) {
	plan, err := NewPlan(testSpec("linpack", "soplex", "milc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(plan.Shards))
	}
	if plan.Cells != 3*len(testSchemes) {
		t.Fatalf("cells = %d, want %d", plan.Cells, 3*len(testSchemes))
	}
	keys := make(map[string]bool)
	for i, sh := range plan.Shards {
		if sh.ID != i {
			t.Fatalf("shard %d has ID %d", i, sh.ID)
		}
		if len(sh.Cells) != len(testSchemes) {
			t.Fatalf("shard %s has %d cells", sh.Workload, len(sh.Cells))
		}
		for _, c := range sh.Cells {
			if c.Workload != sh.Workload {
				t.Fatalf("cell %s/%s in shard %s", c.Workload, c.Scheme, sh.Workload)
			}
		}
		if keys[sh.Key] {
			t.Fatalf("duplicate shard key %s", sh.Key)
		}
		keys[sh.Key] = true
	}
}

func TestNewPlanRejectsBadSpecs(t *testing.T) {
	if _, err := NewPlan(Spec{Schemes: testSchemes}); err == nil {
		t.Fatal("want error for instrs=0")
	}
	if _, err := NewPlan(Spec{Schemes: []string{"nope"}, Instrs: 1000}); err == nil {
		t.Fatal("want error for unknown scheme")
	}
	if _, err := NewPlan(Spec{Instrs: 1000}); err == nil {
		t.Fatal("want error for empty scheme set")
	}
	if _, err := NewPlan(Spec{Schemes: testSchemes, Workloads: []string{"ghost"}, Instrs: 1000}); err == nil {
		t.Fatal("want error for unknown workload")
	}
}

// TestAggregateOrderInvariant is the determinism regression: merging the
// same cells in shuffled completion orders must marshal to bit-identical
// tables.
func TestAggregateOrderInvariant(t *testing.T) {
	plan, err := NewPlan(testSpec("linpack", "soplex", "milc", "astar"))
	if err != nil {
		t.Fatal(err)
	}
	var all []CellResult
	for _, sh := range plan.Shards {
		for _, c := range sh.Cells {
			all = append(all, CellResult{
				Key: c.Key, Workload: c.Workload, Scheme: c.Scheme,
				Stats: fabricate(c.Job), Peer: "x",
			})
		}
	}

	render := func(order []int) string {
		cells := make(map[string]CellResult, len(all))
		for _, i := range order {
			cells[all[i].Key] = all[i]
		}
		data, err := json.Marshal(Aggregate(plan, cells))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	base := make([]int, len(all))
	for i := range base {
		base[i] = i
	}
	want := render(base)

	// A fixed linear-congruential shuffle keeps the test deterministic
	// while exercising many completion orders.
	perm := append([]int(nil), base...)
	seed := uint64(0x9e3779b97f4a7c15)
	for round := 0; round < 20; round++ {
		for i := len(perm) - 1; i > 0; i-- {
			seed = seed*6364136223846793005 + 1442695040888963407
			j := int(seed % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		if got := render(perm); got != want {
			t.Fatalf("round %d: shuffled completion order changed tables\n got: %s\nwant: %s", round, got, want)
		}
	}

	// Partial sets note their coverage instead of silently passing for
	// complete results.
	partial := Aggregate(plan, map[string]CellResult{all[0].Key: all[0]})
	if len(partial) == 0 || len(partial[0].Notes) == 0 {
		t.Fatal("partial aggregation must carry a partial note")
	}
	var full []struct {
		Notes []string `json:"notes"`
	}
	if err := json.Unmarshal([]byte(want), &full); err != nil {
		t.Fatal(err)
	}
	for _, tb := range full {
		if len(tb.Notes) != 0 {
			t.Fatalf("complete aggregation must not carry notes: %v", tb.Notes)
		}
	}
}

func TestOrchestratorRunsMatrixOnSingleEngine(t *testing.T) {
	eng := runner.New(runner.Options{})
	o := newTestOrchestrator(t, SingleEngine{Engine: eng}, nil)
	m, err := o.Submit(testSpec("linpack", "soplex"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, m)
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	if v.CellsDone != v.CellsTotal || v.CellsTotal != 2*len(testSchemes) {
		t.Fatalf("cells %d/%d", v.CellsDone, v.CellsTotal)
	}
	if v.Counts.Done != 2 {
		t.Fatalf("counts = %+v", v.Counts)
	}
	if len(v.Tables) == 0 {
		t.Fatal("no tables")
	}
	evs, terminal, _ := m.EventsSince(0)
	if !terminal || len(evs) == 0 || evs[len(evs)-1].Type != "done" {
		t.Fatalf("events terminal=%v %+v", terminal, evs)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestWorkStealing parks every shard on a slow target's queue and checks
// an idle fast target steals the backlog without double-running cells.
func TestWorkStealing(t *testing.T) {
	fc := newFakeCluster("slow", "fast")
	fc.rankFn = func(string) []string { return []string{"slow", "fast"} }
	fc.delay["slow"] = 40 * time.Millisecond
	o := New(Options{Cluster: fc, WorkersPerTarget: 1})
	defer o.Close()

	m, err := o.Submit(testSpec("linpack", "soplex", "milc", "astar"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, m)
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	if v.Stolen == 0 {
		t.Fatal("expected at least one stolen shard")
	}
	byFast := 0
	for _, sv := range v.Shards {
		if sv.Assigned != "slow" {
			t.Fatalf("shard %d assigned to %s, rank pins slow", sv.ID, sv.Assigned)
		}
		if sv.Owner == "fast" {
			byFast++
			if !sv.Stolen {
				t.Fatalf("shard %d ran on fast without being marked stolen", sv.ID)
			}
		}
	}
	if byFast == 0 {
		t.Fatal("fast target never ran a shard")
	}
	// No double-counting: each cell ran exactly once.
	for _, w := range []string{"linpack", "soplex", "milc", "astar"} {
		if n := fc.callCount(w); n != len(testSchemes) {
			t.Fatalf("workload %s ran %d cells, want %d", w, n, len(testSchemes))
		}
	}
}

// TestPeerFailureRequeues drives every shard at a target that fails hard
// and checks the shards finish elsewhere instead of failing the matrix.
func TestPeerFailureRequeues(t *testing.T) {
	fc := newFakeCluster("ok", "dead")
	fc.rankFn = func(string) []string { return []string{"dead", "ok"} }
	fc.fail["dead"] = errors.New("connection refused")
	// The real ring passively ejects a peer after FailThreshold failures;
	// mimic that so the dead target stops claiming work back.
	fc.ejectAt = 2
	o := New(Options{Cluster: fc, WorkersPerTarget: 1})
	defer o.Close()

	m, err := o.Submit(testSpec("linpack", "soplex"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, m)
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	for _, sv := range v.Shards {
		if sv.Owner != "ok" {
			t.Fatalf("shard %d finished on %s", sv.ID, sv.Owner)
		}
		// A shard bound for the dead target is rescued one of two ways:
		// requeued after a failed attempt there (attempts >= 2), or stolen
		// off its queue before the dead target ever ran it.
		if sv.Assigned == "dead" && !sv.Stolen && sv.Attempts < 2 {
			t.Fatalf("shard %d finished on ok in %d attempts without steal or requeue", sv.ID, sv.Attempts)
		}
	}
}

// waitView polls m's view until cond holds, failing after 10s.
func waitView(t *testing.T, m *Matrix, what string, cond func(View) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for v := m.View(); !cond(v); v = m.View() {
		if time.Now().After(deadline) {
			t.Fatalf("stalled waiting for %s: %+v", what, v.Counts)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReinstatedTargetClaimsAgain: a target unhealthy when the matrix
// starts claims nothing, and once healthy again it takes work at the next
// shard event. Local's two workers hold linpack and soplex in flight while
// the peer comes back; when linpack completes, the peer's workers wake and
// steal from the shards still waiting on local, whose one free worker can
// take only one of them before it blocks too.
func TestReinstatedTargetClaimsAgain(t *testing.T) {
	fc := newFakeCluster("local", "peer")
	fc.unhealthy["peer"] = true
	first, rest := make(chan struct{}), make(chan struct{})
	fc.gate["linpack"] = first
	for _, w := range []string{"soplex", "milc", "astar", "sjeng"} {
		fc.gate[w] = rest
	}
	o := New(Options{Cluster: fc})
	defer o.Close()

	m, err := o.Submit(testSpec("linpack", "soplex", "milc", "astar", "sjeng"))
	if err != nil {
		t.Fatal(err)
	}
	waitView(t, m, "local's workers to hold two shards", func(v View) bool { return v.Counts.Running == 2 })
	fc.mu.Lock()
	fc.unhealthy["peer"] = false
	fc.mu.Unlock()
	close(first)
	waitView(t, m, "the peer to claim a shard", func(v View) bool {
		for _, sv := range v.Shards {
			if sv.Owner == "peer" {
				return true
			}
		}
		return false
	})
	close(rest)

	v := waitDone(t, m)
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	for _, sv := range v.Shards {
		if sv.Assigned != "local" {
			t.Errorf("shard %d assigned to %s while the peer was unhealthy", sv.ID, sv.Assigned)
		}
		if sv.Owner == "peer" && !sv.Stolen {
			t.Errorf("shard %d ran on the peer without being marked stolen", sv.ID)
		}
	}
}

// TestUnhealthyPeerFromStart: a matrix whose only peer is unhealthy from
// the start runs every shard on the local target, even the shards the
// rendezvous order prefers the peer for, and its idle peer workers wake
// and exit when the last shard completes.
func TestUnhealthyPeerFromStart(t *testing.T) {
	fc := newFakeCluster("local", "peer")
	fc.rankFn = func(string) []string { return []string{"peer", "local"} }
	fc.unhealthy["peer"] = true
	o := New(Options{Cluster: fc})
	defer o.Close()

	m, err := o.Submit(testSpec("linpack", "soplex", "milc"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, m)
	if v.Status != StatusDone || v.CellsDone != v.CellsTotal {
		t.Fatalf("status = %s (%s), cells %d/%d", v.Status, v.Error, v.CellsDone, v.CellsTotal)
	}
	for _, sv := range v.Shards {
		if sv.Assigned != "local" || sv.Owner != "local" || sv.Stolen {
			t.Errorf("shard %d assigned=%s owner=%s stolen=%v, want local/local/false",
				sv.ID, sv.Assigned, sv.Owner, sv.Stolen)
		}
	}
}

// TestCancelWakesIdleWorkers: cancelling a matrix wakes workers that sleep
// with nothing to claim (the unhealthy peer's two, and local's second
// while its first holds the only shard), and Done closes within 1s.
func TestCancelWakesIdleWorkers(t *testing.T) {
	fc := newFakeCluster("local", "peer")
	fc.unhealthy["peer"] = true
	gate := make(chan struct{})
	defer close(gate)
	fc.gate["linpack"] = gate
	o := New(Options{Cluster: fc})
	defer o.Close()

	m, err := o.Submit(testSpec("linpack"))
	if err != nil {
		t.Fatal(err)
	}
	waitView(t, m, "the shard to start", func(v View) bool { return v.Counts.Running == 1 })
	if !o.Cancel(m.ID()) {
		t.Fatal("cancel: matrix not found")
	}
	select {
	case <-m.Done():
	case <-time.After(time.Second):
		t.Fatalf("Done not closed 1s after Cancel: %+v", m.View().Counts)
	}
	if v := m.View(); v.Status != StatusCancelled || v.Counts.Cancelled != 1 {
		t.Fatalf("status = %s, counts %+v, want cancelled with 1 cancelled shard", v.Status, v.Counts)
	}
}

// TestExhaustedAttemptsFailMatrix verifies a shard that can never run
// eventually fails the matrix instead of looping forever: after
// 2*targets+1 attempts.
func TestExhaustedAttemptsFailMatrix(t *testing.T) {
	fc := newFakeCluster("only")
	fc.fail["only"] = errors.New("sim exploded")
	o := New(Options{Cluster: fc})
	defer o.Close()

	m, err := o.Submit(testSpec("linpack"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, m)
	if v.Status != StatusFailed {
		t.Fatalf("status = %s", v.Status)
	}
	if v.Counts.Failed != 1 || v.Error == "" {
		t.Fatalf("counts = %+v err=%q", v.Counts, v.Error)
	}
	if got := v.Shards[0].Attempts; got != 3 {
		t.Fatalf("attempts = %d, want 3 (2*targets+1)", got)
	}
}

// TestBackendCancelErrorRequeues: a backend error that merely wraps
// context.Canceled while the matrix context is still live is an ordinary
// shard failure (requeue to the next target), not matrix cancellation —
// a peer internally cancelling a job must not yield a "done" matrix with
// silently missing cells.
func TestBackendCancelErrorRequeues(t *testing.T) {
	fc := newFakeCluster("ok", "flaky")
	fc.rankFn = func(string) []string { return []string{"flaky", "ok"} }
	fc.fail["flaky"] = fmt.Errorf("job aborted: %w", context.Canceled)
	fc.ejectAt = 2
	o := New(Options{Cluster: fc, WorkersPerTarget: 1})
	defer o.Close()

	m, err := o.Submit(testSpec("linpack", "soplex"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, m)
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	if v.Counts.Cancelled != 0 {
		t.Fatalf("live matrix recorded cancelled shards: %+v", v.Counts)
	}
	if v.CellsDone != v.CellsTotal {
		t.Fatalf("cells %d/%d — wrapped context.Canceled dropped shards", v.CellsDone, v.CellsTotal)
	}
}

// TestCancelMidMatrix covers the cancellation satellite: in-flight
// shards count as cancelled (not failed) and the engine's result cache
// stays consistent for later reuse.
func TestCancelMidMatrix(t *testing.T) {
	fc := newFakeCluster("local")
	gate := make(chan struct{})
	fc.gate["soplex"] = gate
	fc.gate["milc"] = gate
	o := New(Options{Cluster: fc, WorkersPerTarget: 1})
	defer o.Close()

	m, err := o.Submit(testSpec("linpack", "soplex", "milc"))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the ungated shard to land, then cancel with the rest
	// blocked in flight.
	deadline := time.Now().Add(10 * time.Second)
	for m.View().Counts.Done == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no shard completed")
		}
		time.Sleep(time.Millisecond)
	}
	if !o.Cancel(m.ID()) {
		t.Fatal("cancel: matrix not found")
	}
	v := waitDone(t, m)
	close(gate)

	if v.Status != StatusCancelled {
		t.Fatalf("status = %s", v.Status)
	}
	if v.Counts.Failed != 0 {
		t.Fatalf("cancelled matrix reported failures: %+v", v.Counts)
	}
	if v.Counts.Cancelled != 2 || v.Counts.Done != 1 {
		t.Fatalf("counts = %+v, want 1 done + 2 cancelled", v.Counts)
	}
	// Completed cells survive; cancelled shards contribute nothing.
	if v.CellsDone != len(testSchemes) {
		t.Fatalf("cells done = %d, want %d", v.CellsDone, len(testSchemes))
	}
	evs, terminal, _ := m.EventsSince(0)
	if !terminal || evs[len(evs)-1].Type != "cancelled" {
		t.Fatalf("terminal event: %+v", evs[len(evs)-1])
	}
}

// TestCancelLeavesRunnerCacheConsistent cancels a real in-process run
// mid-simulation and checks the engine afterwards serves the same job
// correctly (no partial result was cached).
func TestCancelLeavesRunnerCacheConsistent(t *testing.T) {
	eng := runner.New(runner.Options{})
	o := newTestOrchestrator(t, SingleEngine{Engine: eng}, nil)
	// Big enough to still be in flight 10ms in, small enough that the
	// abandoned lead simulation finishes quickly in the background.
	spec := Spec{Workloads: []string{"linpack"}, Schemes: []string{"baseline"}, Instrs: 2_000_000}
	m, err := o.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	o.Cancel(m.ID())
	v := waitDone(t, m)
	if v.Status != StatusCancelled {
		t.Fatalf("status = %s", v.Status)
	}

	// The same cell re-requested directly must simulate cleanly.
	job := m.Plan().Shards[0].Cells[0].Job
	job.Instrs = 20_000
	stats, cached, err := eng.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("shrunk job unexpectedly cached")
	}
	if stats.Instructions == 0 || stats.Cycles == 0 {
		t.Fatalf("inconsistent cached stats after cancel: %+v", stats)
	}
}

// TestCompletionOrderBitIdentical runs one spec under two clusters with
// opposite timing profiles and asserts the final tables marshal
// identically — the distributed-vs-single determinism guarantee at unit
// scale.
func TestCompletionOrderBitIdentical(t *testing.T) {
	spec := testSpec("linpack", "soplex", "milc", "astar", "sjeng")
	run := func(slowTarget string) string {
		fc := newFakeCluster("a", "b")
		fc.delay[slowTarget] = 15 * time.Millisecond
		o := New(Options{Cluster: fc})
		defer o.Close()
		m, err := o.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		v := waitDone(t, m)
		if v.Status != StatusDone {
			t.Fatalf("status = %s (%s)", v.Status, v.Error)
		}
		data, err := json.Marshal(v.Tables)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := run("a"), run("b"); a != b {
		t.Fatalf("completion order leaked into tables:\n a: %s\n b: %s", a, b)
	}
}

// TestStoreResume interrupts a matrix and resumes it from disk: done
// shards restore without re-execution, the rest run to completion.
func TestStoreResume(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fc1 := newFakeCluster("local")
	gate := make(chan struct{})
	fc1.gate["milc"] = gate
	fc1.gate["astar"] = gate
	o1 := New(Options{Cluster: fc1, Store: store1, WorkersPerTarget: 1})

	m1, err := o1.Submit(testSpec("linpack", "soplex", "milc", "astar"))
	if err != nil {
		t.Fatal(err)
	}
	id := m1.ID()
	deadline := time.Now().Add(10 * time.Second)
	for m1.View().Counts.Done < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled waiting for 2 shards: %+v", m1.View().Counts)
		}
		time.Sleep(time.Millisecond)
	}
	o1.Close() // daemon dies mid-matrix
	close(gate)
	// An interrupted matrix never goes terminal, but Done() must still
	// unblock: no more work will happen on it in this process.
	select {
	case <-m1.Done():
	default:
		t.Fatal("Done() not closed after orchestrator shutdown")
	}

	store2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fc2 := newFakeCluster("local")
	o2 := newTestOrchestrator(t, fc2, store2)
	resumed, err := o2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed = %d, want 1", resumed)
	}
	m2, ok := o2.Get(id)
	if !ok {
		t.Fatalf("matrix %s not found after resume", id)
	}
	v := waitDone(t, m2)
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	if !v.Resumed {
		t.Fatal("view not marked resumed")
	}
	if v.Restored != 2*len(testSchemes) {
		t.Fatalf("restored cells = %d, want %d", v.Restored, 2*len(testSchemes))
	}
	if v.CellsDone != v.CellsTotal {
		t.Fatalf("cells %d/%d", v.CellsDone, v.CellsTotal)
	}
	// Shards done before the restart must not have re-executed.
	for _, w := range []string{"linpack", "soplex"} {
		if n := fc2.callCount(w); n != 0 {
			t.Fatalf("restored workload %s re-ran %d cells", w, n)
		}
	}
	for _, w := range []string{"milc", "astar"} {
		if n := fc2.callCount(w); n != len(testSchemes) {
			t.Fatalf("workload %s ran %d cells after resume, want %d", w, n, len(testSchemes))
		}
	}
	evs, _, _ := m2.EventsSince(0)
	if evs[0].Type != "resumed" {
		t.Fatalf("first event after resume = %s", evs[0].Type)
	}
}

// TestResumeTerminalMatrix re-registers finished matrices read-only.
func TestResumeTerminalMatrix(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFakeCluster("local")
	o1 := New(Options{Cluster: fc, Store: store1})
	m1, err := o1.Submit(testSpec("linpack"))
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, m1)
	o1.Close()

	store2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o2 := newTestOrchestrator(t, newFakeCluster("local"), store2)
	resumed, err := o2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("resumed = %d, want 0 (matrix was terminal)", resumed)
	}
	m2, ok := o2.Get(m1.ID())
	if !ok {
		t.Fatal("terminal matrix missing after resume")
	}
	got := m2.View()
	if got.Status != StatusDone {
		t.Fatalf("status = %s", got.Status)
	}
	a, _ := json.Marshal(want.Tables)
	b, _ := json.Marshal(got.Tables)
	if string(a) != string(b) {
		t.Fatalf("tables changed across restart:\n%s\n%s", a, b)
	}
	if _, terminal, _ := m2.EventsSince(0); !terminal {
		t.Fatal("restored terminal matrix must report terminal events")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(testSpec("linpack"))
	if err != nil {
		t.Fatal(err)
	}
	m := newMatrix(plan)
	if err := store.Save(m.snapshot()); err != nil {
		t.Fatal(err)
	}
	st, err := store.Load(plan.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan.ID != plan.ID || len(st.Shards) != 1 {
		t.Fatalf("round trip mismatch: %+v", st)
	}
	all, err := store.LoadAll()
	if err != nil || len(all) != 1 {
		t.Fatalf("LoadAll = %d, %v", len(all), err)
	}
	if err := store.Delete(plan.ID); err != nil {
		t.Fatal(err)
	}
	if all, _ = store.LoadAll(); len(all) != 0 {
		t.Fatalf("LoadAll after delete = %d", len(all))
	}
	if err := store.Delete(plan.ID); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

// TestLoadedCellCountSizesNothing: a persisted plan's cell count is a
// number read from disk, so rebuilding the matrix from it must not
// allocate in proportion to it; a corrupt count would otherwise cost a
// restarting daemon its memory.
// A persisted plan's cell count is neither trusted nor used to size
// anything: the loaded matrix counts the cells its shards hold.
func TestLoadedCellCountSizesNothing(t *testing.T) {
	shards := []Shard{{ID: 0, Workload: "linpack", Cells: []Cell{{Workload: "linpack", Scheme: "dlvp", Key: "k"}}}}
	st := State{Plan: Plan{ID: "m", Cells: 1_000_000, Shards: shards}, Status: StatusRunning}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v := matrixFromState(st).View()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rebuilding a matrix that claims %d cells allocated %d bytes", st.Plan.Cells, n)
	}
	if v.CellsTotal != 1 {
		t.Errorf("CellsTotal = %d, want 1, the cells its one shard holds (the file claims %d)", v.CellsTotal, st.Plan.Cells)
	}
}

func TestOrchestratorEviction(t *testing.T) {
	fc := newFakeCluster("local")
	o := New(Options{Cluster: fc})
	defer o.Close()
	var ids []string
	for i := 0; i < maxMatrices+1; i++ {
		m, err := o.Submit(testSpec("linpack"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, m)
		ids = append(ids, m.ID())
	}
	if _, ok := o.Get(ids[0]); ok {
		t.Fatal("oldest terminal matrix not evicted")
	}
	if _, ok := o.Get(ids[maxMatrices]); !ok {
		t.Fatal("newest matrix missing")
	}
	if got := len(o.List()); got != maxMatrices {
		t.Fatalf("retained %d matrices, want %d", got, maxMatrices)
	}
}

func TestAggregateSpeedupTable(t *testing.T) {
	plan, err := NewPlan(testSpec("linpack", "soplex"))
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[string]CellResult)
	for _, sh := range plan.Shards {
		for _, c := range sh.Cells {
			st := fabricate(c.Job)
			if c.Scheme == "dlvp" {
				st.Cycles = st.Cycles / 2 // 2x faster
			}
			cells[c.Key] = CellResult{Key: c.Key, Workload: c.Workload, Scheme: c.Scheme, Stats: st}
		}
	}
	tables := Aggregate(plan, cells)
	if len(tables) != 3 {
		t.Fatalf("tables = %d, want 3", len(tables))
	}
	sp := tables[1]
	if len(sp.Rows) != 2+2 { // workloads + mean + geomean
		t.Fatalf("speedup rows = %d", len(sp.Rows))
	}
	last := sp.Rows[len(sp.Rows)-1]
	if last[0] != "geomean" {
		t.Fatalf("last row = %v", last)
	}
	var sum []struct{}
	_ = sum
	if fmt.Sprint(tables[2].Header[0]) != "scheme" {
		t.Fatalf("summary header = %v", tables[2].Header)
	}
}

// TestMatrixShardSpansJoinSubmitterTrace: SubmitCtx captures the
// submitting request's trace and re-attaches it to the worker
// goroutines, so every shard records a matrix.shard span parented under
// the submit request's span and stolen shards carry the stolen marker —
// even though execution happens long after the request returned.
func TestMatrixShardSpansJoinSubmitterTrace(t *testing.T) {
	fc := newFakeCluster("slow", "fast")
	fc.rankFn = func(string) []string { return []string{"slow", "fast"} }
	fc.delay["slow"] = 40 * time.Millisecond
	ob := obs.NewObserver(nil)
	o := New(Options{Cluster: fc, Obs: ob, WorkersPerTarget: 1})
	defer o.Close()

	ob.Tracer.Begin("submit-req")
	ctx := obs.ContextWithTrace(context.Background(), ob.Tracer, "submit-req")
	ctx, root := obs.StartSpanCtx(ctx, "http.request")
	m, err := o.SubmitCtx(ctx, testSpec("linpack", "soplex", "milc", "astar"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, m)
	root.End()
	if v.Status != StatusDone || v.Stolen == 0 {
		t.Fatalf("status=%s stolen=%d — scenario must complete with steals", v.Status, v.Stolen)
	}

	tv, ok := ob.Tracer.Get("submit-req")
	if !ok {
		t.Fatal("submit trace vanished")
	}
	shardSpans, stolenSpans := 0, 0
	for _, sp := range tv.Spans {
		if sp.Name != "matrix.shard" {
			continue
		}
		shardSpans++
		if sp.ParentID != root.ID() {
			t.Errorf("shard span parent = %q, want submit span %q", sp.ParentID, root.ID())
		}
		if sp.Attrs["matrix"] != m.ID() || sp.Attrs["target"] == "" {
			t.Errorf("shard span attrs incomplete: %v", sp.Attrs)
		}
		if sp.Marker == obs.MarkerStolen {
			stolenSpans++
		}
	}
	if shardSpans != len(v.Shards) {
		t.Errorf("matrix.shard spans = %d, want one per shard (%d)", shardSpans, len(v.Shards))
	}
	if stolenSpans != v.Stolen {
		t.Errorf("stolen-marked spans = %d, view reports %d stolen shards", stolenSpans, v.Stolen)
	}
}

// TestMatrixRequeueRecordsRetrySpan: a shard failing on one target and
// requeuing onto another leaves a retry-marked matrix.requeue span in
// the submitter's trace naming both targets.
func TestMatrixRequeueRecordsRetrySpan(t *testing.T) {
	fc := newFakeCluster("ok", "dead")
	fc.rankFn = func(string) []string { return []string{"dead", "ok"} }
	fc.fail["dead"] = errors.New("connection refused")
	fc.ejectAt = 1
	ob := obs.NewObserver(nil)
	o := New(Options{Cluster: fc, Obs: ob, WorkersPerTarget: 1})
	defer o.Close()

	ob.Tracer.Begin("requeue-req")
	ctx := obs.ContextWithTrace(context.Background(), ob.Tracer, "requeue-req")
	m, err := o.SubmitCtx(ctx, testSpec("linpack", "soplex"))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, m)
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}

	tv, ok := ob.Tracer.Get("requeue-req")
	if !ok {
		t.Fatal("trace vanished")
	}
	requeues, failedShards := 0, 0
	for _, sp := range tv.Spans {
		switch sp.Name {
		case "matrix.requeue":
			requeues++
			if sp.Marker != obs.MarkerRetry {
				t.Errorf("requeue span marker = %q, want %q", sp.Marker, obs.MarkerRetry)
			}
			if sp.Attrs["from"] != "dead" || sp.Attrs["to"] == "" || sp.Attrs["error"] == "" {
				t.Errorf("requeue span attrs incomplete: %v", sp.Attrs)
			}
		case "matrix.shard":
			if sp.Attrs["outcome"] == "failed" {
				failedShards++
				// The requeue span parents under the failed attempt's
				// shard span, keeping the retry chain readable in the
				// assembled tree.
				if sp.SpanID == "" {
					t.Error("failed shard span missing span ID")
				}
			}
		}
	}
	// At least one shard hit the dead target first (rank pins it), so at
	// least one requeue must be recorded — unless every dead-bound shard
	// was stolen before its first attempt, which ejectAt=1 + rank pinning
	// makes effectively impossible with a 40ms-free fast path. Guard on
	// the view instead of assuming.
	requeued := 0
	for _, sv := range v.Shards {
		if sv.Attempts > 1 {
			requeued++
		}
	}
	if requeues != requeued {
		t.Errorf("matrix.requeue spans = %d, view shows %d requeued shards", requeues, requeued)
	}
	if requeued > 0 && failedShards == 0 {
		t.Error("requeued shards left no failed matrix.shard span")
	}
}
