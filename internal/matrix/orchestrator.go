package matrix

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"dlvp/internal/obs"
	"dlvp/internal/tabletext"
)

// ErrUnknownTarget reports a shard submission naming a cluster member
// that does not exist.
var ErrUnknownTarget = errors.New("matrix: unknown target")

// ErrTooManyMatrices reports that the orchestrator's retention cap is
// full of still-running matrices.
var ErrTooManyMatrices = errors.New("matrix: too many active matrices")

// maxMatrices caps the retained matrices; past it the oldest terminal
// ones are evicted.
const maxMatrices = 64

// Options configures an Orchestrator.
type Options struct {
	// Cluster executes shards (required).
	Cluster Cluster
	// Store, when non-nil, persists plan + shard state after every shard
	// completion, making matrices resumable across daemon restarts.
	Store *Store
	// Obs collects metrics and logs (nil = discard).
	Obs *obs.Observer
	// WorkersPerTarget is how many shards one target executes
	// concurrently (default 2). Idle workers steal shards waiting on
	// other targets.
	WorkersPerTarget int
}

// Orchestrator owns every matrix submitted to this daemon: it plans,
// schedules shards over the cluster with work-stealing, streams events,
// and persists/restores state.
type Orchestrator struct {
	cluster Cluster
	store   *Store
	obs     *obs.Observer
	opts    Options

	ctx    context.Context
	stop   context.CancelFunc
	runWG  sync.WaitGroup
	closed bool

	mu       sync.Mutex
	matrices map[string]*Matrix
	order    []string // submission order, oldest first

	submitted *obs.Counter
	shardRuns *obs.CounterVec // outcome: done|failed|cancelled|requeued|stolen
	cellRuns  *obs.CounterVec // cache: hit|miss
}

// New returns an orchestrator scheduling over opts.Cluster.
func New(opts Options) *Orchestrator {
	if opts.Cluster == nil {
		panic("matrix: Options.Cluster is required")
	}
	if opts.WorkersPerTarget <= 0 {
		opts.WorkersPerTarget = 2
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewObserver(nil)
	}
	ctx, stop := context.WithCancel(context.Background())
	reg := opts.Obs.Metrics
	o := &Orchestrator{
		cluster:  opts.Cluster,
		store:    opts.Store,
		obs:      opts.Obs,
		opts:     opts,
		ctx:      ctx,
		stop:     stop,
		matrices: make(map[string]*Matrix),

		submitted: reg.Counter("dlvp_matrix_submitted_total", "Matrices submitted.").With(),
		shardRuns: reg.Counter("dlvp_matrix_shards_total", "Shard scheduling outcomes.", "outcome"),
		cellRuns:  reg.Counter("dlvp_matrix_cells_total", "Cells executed, by result-cache outcome.", "cache"),
	}
	return o
}

// Matrix is one submitted sweep's live state.
type Matrix struct {
	plan Plan

	// traceID/parentSpan carry the submitting request's trace context into
	// the orchestrator's worker goroutines, which outlive the request:
	// shard spans (and, via traceparent propagation, the peers' subtrees)
	// join the submitter's distributed trace. Set once before start, never
	// mutated after; empty for resumed matrices — their submitter is gone.
	traceID    string
	parentSpan string

	mu         sync.Mutex
	shards     []*shardRun
	targets    []string
	cells      map[string]CellResult
	status     string
	errMsg     string
	events     []Event
	tables     []*tabletext.Table // final tables, set at terminal transition
	started    time.Time
	finished   time.Time
	resumed    bool
	restored   int  // cells restored from persisted state
	userCancel bool // Cancel() was called (vs. daemon shutdown)
	// changed is closed and replaced whenever a shard completes, fails,
	// is requeued or is cancelled, and whenever an event is appended:
	// idle workers and event streams wait on it instead of polling.
	changed chan struct{}

	cancel context.CancelFunc
	done   chan struct{}

	// persistMu serializes snapshot+save pairs so two shards finishing at
	// once cannot interleave their renames and land an older snapshot on
	// disk after a newer one. Always acquired before (never under) mu.
	persistMu sync.Mutex
}

// shardRun is one shard's mutable scheduling state (guarded by Matrix.mu).
type shardRun struct {
	state    string
	assigned string // rendezvous choice at start, reported as Assigned
	// waitsOn is the target a pending shard waits on: assigned, or the
	// target a requeue moved it to.
	waitsOn   string
	owner     string
	stolen    bool
	attempts  int
	cacheHits int
	restored  bool
	startedAt time.Time
	finishAt  time.Time
	errMsg    string
}

// ID returns the matrix identifier.
func (m *Matrix) ID() string { return m.plan.ID }

// Plan returns the immutable decomposition this matrix executes.
func (m *Matrix) Plan() Plan { return m.plan }

// Done is closed when no more work will happen on the matrix in this
// process: it reached a terminal state, or daemon shutdown interrupted it
// (still "running" on disk, resumable on the next boot). Check View() or
// terminal state after waking to tell the cases apart.
func (m *Matrix) Done() <-chan struct{} { return m.done }

// newMatrix builds the runtime state for a plan with every shard pending.
// A resumed plan comes from disk, so nothing is sized by its Cells count.
func newMatrix(plan Plan) *Matrix {
	m := &Matrix{
		plan:    plan,
		status:  StatusRunning,
		cells:   make(map[string]CellResult),
		changed: make(chan struct{}),
		done:    make(chan struct{}),
		cancel:  func() {},
	}
	m.shards = make([]*shardRun, len(plan.Shards))
	for i := range m.shards {
		m.shards[i] = &shardRun{state: ShardPending}
	}
	return m
}

// Submit validates, plans, registers, and starts a matrix.
func (o *Orchestrator) Submit(spec Spec) (*Matrix, error) {
	return o.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit carrying the submitting request's trace context.
// Shard execution happens on orchestrator goroutines that outlive the
// request, so the trace ID and current span are captured here and
// re-attached to the worker context: every shard span — and, through
// traceparent propagation, every peer-side subtree — lands in the
// submitter's trace, parented under the submit request's span.
func (o *Orchestrator) SubmitCtx(ctx context.Context, spec Spec) (*Matrix, error) {
	plan, err := NewPlan(spec)
	if err != nil {
		return nil, err
	}
	m := newMatrix(plan)
	m.traceID = obs.TraceID(ctx)
	m.parentSpan = obs.SpanID(ctx)
	if err := o.register(m); err != nil {
		return nil, err
	}
	o.submitted.Inc()
	o.start(m)
	return m, nil
}

// register inserts m, evicting the oldest terminal matrices past the cap.
func (o *Orchestrator) register(m *Matrix) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return fmt.Errorf("matrix: orchestrator closed")
	}
	for len(o.order) >= maxMatrices {
		evicted := false
		for i, id := range o.order {
			old := o.matrices[id]
			if old.terminal() {
				delete(o.matrices, id)
				o.order = append(o.order[:i], o.order[i+1:]...)
				if o.store != nil {
					if err := o.store.Delete(id); err != nil {
						o.obs.Log.Warn("matrix: evict delete failed", "id", id, "err", err)
					}
				}
				evicted = true
				break
			}
		}
		if !evicted {
			return ErrTooManyMatrices
		}
	}
	o.matrices[m.plan.ID] = m
	o.order = append(o.order, m.plan.ID)
	return nil
}

// start assigns every pending shard to the first healthy target in its
// rendezvous order and launches the per-target worker pool.
func (o *Orchestrator) start(m *Matrix) {
	ctx, cancel := context.WithCancel(o.ctx)
	if m.traceID != "" {
		// Re-attach the submitter's trace (workers run under o.ctx, which
		// carries none). If the trace has since been evicted from the
		// tracer's ring, span recording degrades to a no-op.
		ctx = obs.ContextWithRemoteParent(ctx, o.obs.Tracer, m.traceID, m.parentSpan)
	}

	m.mu.Lock()
	m.cancel = cancel
	if m.started.IsZero() {
		m.started = time.Now()
	}
	m.targets = o.cluster.Targets()
	for i, sr := range m.shards {
		if sr.state != ShardPending {
			continue
		}
		order := o.cluster.RankTargets(m.plan.Shards[i].Key)
		sr.assigned = order[0]
		for _, t := range order {
			if o.cluster.TargetHealthy(t) {
				sr.assigned = t
				break
			}
		}
		sr.waitsOn = sr.assigned
	}
	m.mu.Unlock()

	o.persist(m)
	// The Add must not race Close's runWG.Wait: registering it under o.mu
	// against the closed flag guarantees either the Add lands before Close
	// flips closed (and Wait covers the workers), or start observes closed
	// and launches nothing.
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		cancel()
		close(m.done)
		o.obs.Log.Info("matrix: orchestrator closed before start, state persisted", "matrix", m.plan.ID)
		return
	}
	o.runWG.Add(1)
	o.mu.Unlock()
	go func() {
		defer o.runWG.Done()
		defer cancel()
		var wg sync.WaitGroup
		for _, t := range m.targets {
			for w := 0; w < o.opts.WorkersPerTarget; w++ {
				wg.Add(1)
				go func(target string) {
					defer wg.Done()
					o.worker(ctx, m, target)
				}(t)
			}
		}
		wg.Wait()
		o.finish(ctx, m)
	}()
}

// worker executes shards on behalf of one target until no shard is
// pending or running. With nothing to claim it sleeps until the next
// shard event or the end of the matrix context.
func (o *Orchestrator) worker(ctx context.Context, m *Matrix, target string) {
	for ctx.Err() == nil {
		id, stole, wait := m.claim(o.cluster.TargetHealthy(target), target)
		if id < 0 {
			if wait == nil {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-wait:
			}
			continue
		}
		if stole {
			o.shardRuns.With("stolen").Inc()
		}
		o.runShard(ctx, m, id, target, stole)
	}
}

// claim starts a pending shard on target: the first one waiting on it,
// or else, as a steal, the last one waiting on another target, so a dead
// or slow peer's backlog drains through whoever has spare capacity. An
// unhealthy target claims nothing. Single ownership under m.mu is what
// keeps steals from double-counting: a shard leaves pending exactly once
// per attempt, and results commit only from its current owner. With
// nothing claimed, id is -1 and wait is the channel closed at the next
// shard event, or nil once no shard is pending or running.
func (m *Matrix) claim(healthy bool, target string) (id int, stole bool, wait <-chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	own, other, live := -1, -1, false
	for i, sr := range m.shards {
		switch sr.state {
		case ShardRunning:
			live = true
		case ShardPending:
			live = true
			if sr.waitsOn != target {
				other = i
			} else if own < 0 {
				own = i
			}
		}
	}
	switch {
	case !live:
		return -1, false, nil
	case !healthy || (own < 0 && other < 0):
		return -1, false, m.changed
	case own >= 0:
		m.startShardLocked(own, target)
		return own, false, nil
	}
	m.shards[other].stolen = true
	m.startShardLocked(other, target)
	return other, true, nil
}

func (m *Matrix) startShardLocked(id int, target string) {
	sr := m.shards[id]
	sr.state = ShardRunning
	sr.owner = target
	sr.attempts++
	if sr.startedAt.IsZero() {
		sr.startedAt = time.Now()
	}
}

// runShard executes every cell of one shard on target, committing the
// results or routing the failure. The whole shard runs inside one
// matrix.shard span (stolen shards carry the stolen marker), and every
// cell dispatch happens in that span's context so the dispatcher's
// attempt spans — and the remote subtree behind them — nest under it.
func (o *Orchestrator) runShard(ctx context.Context, m *Matrix, id int, target string, stolen bool) {
	shard := m.plan.Shards[id]
	m.mu.Lock()
	attempt := m.shards[id].attempts
	m.mu.Unlock()
	sctx, sp := obs.StartSpanCtx(ctx, "matrix.shard")
	sp.Attr("matrix", m.plan.ID).Attr("shard", strconv.Itoa(id)).
		Attr("workload", shard.Workload).Attr("target", target).
		Attr("attempt", strconv.Itoa(attempt))
	if stolen {
		sp.Mark(obs.MarkerStolen)
	}
	results := make([]CellResult, 0, len(shard.Cells))
	for _, cell := range shard.Cells {
		begin := time.Now()
		res, cached, err := o.cluster.RunOn(sctx, target, cell.Job)
		if err != nil {
			sp.Attr("outcome", "failed").Attr("error", err.Error()).End()
			o.shardFailed(sctx, m, id, target, err)
			return
		}
		results = append(results, CellResult{
			Key:       cell.Key,
			Workload:  cell.Workload,
			Scheme:    cell.Scheme,
			Stats:     res.Stats,
			Cached:    cached,
			Peer:      target,
			ElapsedMS: time.Since(begin).Milliseconds(),
		})
	}
	sp.Attr("outcome", "done").End()
	o.shardDone(m, id, target, results)
}

// shardDone commits one shard's results and emits a "shard" event
// carrying the refreshed partial tables.
func (o *Orchestrator) shardDone(m *Matrix, id int, target string, results []CellResult) {
	m.mu.Lock()
	sr := m.shards[id]
	if sr.state != ShardRunning || sr.owner != target {
		// Ownership moved (defensive: the claim mutex should prevent this);
		// never double-commit.
		m.mu.Unlock()
		return
	}
	sr.state = ShardDone
	sr.finishAt = time.Now()
	sr.errMsg = ""
	hits := 0
	for _, r := range results {
		if r.Cached {
			hits++
		}
		m.cells[r.Key] = r
	}
	sr.cacheHits = hits
	sv := m.shardViewLocked(id)
	m.appendEventLocked(Event{Type: "shard", Shard: &sv, Tables: Aggregate(m.plan, m.cells)})
	m.mu.Unlock()

	o.shardRuns.With("done").Inc()
	o.cellRuns.With("hit").Add(int64(hits))
	o.cellRuns.With("miss").Add(int64(len(results) - hits))
	o.persist(m)
	o.obs.Log.Debug("matrix: shard done", "matrix", m.plan.ID, "shard", id, "workload", m.plan.Shards[id].Workload, "owner", target, "cache_hits", hits)
}

// shardFailed handles one failed cell: when the matrix context itself is
// cancelled the shard is marked cancelled; otherwise the whole shard
// requeues onto the next healthy target in its rendezvous order until
// the attempt budget runs out. Only the matrix ctx decides cancellation —
// a backend error that merely wraps context.Canceled (a peer cancelling
// its own work) while the matrix is still live is an ordinary failure,
// not a reason to silently drop the shard from a "done" sweep.
func (o *Orchestrator) shardFailed(ctx context.Context, m *Matrix, id int, target string, err error) {
	m.mu.Lock()
	sr := m.shards[id]
	if sr.state != ShardRunning || sr.owner != target {
		m.mu.Unlock()
		return
	}
	if ctx.Err() != nil {
		sr.state = ShardCancelled
		sr.finishAt = time.Now()
		m.signalLocked()
		m.mu.Unlock()
		o.shardRuns.With("cancelled").Inc()
		return
	}
	sr.errMsg = err.Error()
	attempts := sr.attempts
	if attempts >= 2*len(m.targets)+1 {
		sr.state = ShardFailed
		sr.finishAt = time.Now()
		sv := m.shardViewLocked(id)
		m.appendEventLocked(Event{Type: "shard", Shard: &sv, Tables: Aggregate(m.plan, m.cells)})
		m.mu.Unlock()
		o.shardRuns.With("failed").Inc()
		o.persist(m)
		o.obs.Log.Warn("matrix: shard failed", "matrix", m.plan.ID, "shard", id, "attempts", attempts, "err", err)
		return
	}
	// Requeue after the failing target in the shard's rendezvous order;
	// the local member (Targets()[0]) is the guaranteed fallback.
	order := o.cluster.RankTargets(m.plan.Shards[id].Key)
	at := 0
	for i, name := range order {
		if name == target {
			at = i
			break
		}
	}
	next := ""
	for off := 1; off <= len(order); off++ {
		cand := order[(at+off)%len(order)]
		if cand != target && o.cluster.TargetHealthy(cand) {
			next = cand
			break
		}
	}
	if next == "" {
		next = o.cluster.Targets()[0]
	}
	sr.state = ShardPending
	sr.owner = ""
	sr.waitsOn = next
	m.signalLocked()
	m.mu.Unlock()
	o.shardRuns.With("requeued").Inc()
	obs.StartSpan(ctx, "matrix.requeue").Mark(obs.MarkerRetry).
		Attr("matrix", m.plan.ID).Attr("shard", strconv.Itoa(id)).
		Attr("from", target).Attr("to", next).
		Attr("error", err.Error()).End()
	o.obs.Log.Info("matrix: shard requeued", "matrix", m.plan.ID, "shard", id, "from", target, "to", next, "attempts", attempts, "err", err)
}

// finish runs after every worker exits: it cancels any shard still
// queued, decides the terminal status, and emits the terminal event with
// the final tables.
func (o *Orchestrator) finish(ctx context.Context, m *Matrix) {
	m.mu.Lock()
	if ctx.Err() != nil && !m.userCancel && o.ctx.Err() != nil {
		// Daemon shutdown, not user cancellation: the matrix stays
		// resumable. In-flight shards fall back to pending, the persisted
		// status stays "running", and Resume picks the matrix up after
		// restart; work that actually finished on the peers turns into
		// content-addressed cache hits on re-execution.
		for _, sr := range m.shards {
			if sr.state == ShardRunning || sr.state == ShardCancelled {
				sr.state = ShardPending
				sr.owner = ""
			}
		}
		m.mu.Unlock()
		o.persist(m)
		// The matrix is not terminal — but no more work will happen on it
		// in this process, so waiters on Done() must still wake up.
		close(m.done)
		o.obs.Log.Info("matrix: interrupted by shutdown, state persisted", "matrix", m.plan.ID)
		return
	}
	for _, sr := range m.shards {
		if sr.state == ShardPending || sr.state == ShardRunning {
			sr.state = ShardCancelled
			if sr.finishAt.IsZero() {
				sr.finishAt = time.Now()
			}
		}
	}
	status := StatusDone
	errMsg := ""
	if ctx.Err() != nil {
		status = StatusCancelled
	} else {
		for i, sr := range m.shards {
			if sr.state == ShardFailed {
				status = StatusFailed
				if errMsg == "" {
					errMsg = fmt.Sprintf("shard %d (%s): %s", i, m.plan.Shards[i].Workload, sr.errMsg)
				}
			}
		}
	}
	m.status = status
	m.errMsg = errMsg
	m.finished = time.Now()
	m.tables = Aggregate(m.plan, m.cells)
	evType := map[string]string{StatusDone: "done", StatusCancelled: "cancelled", StatusFailed: "error"}[status]
	m.appendEventLocked(Event{Type: evType, Tables: m.tables, Error: errMsg})
	m.mu.Unlock()

	close(m.done)
	o.persist(m)
	o.obs.Log.Info("matrix: finished", "matrix", m.plan.ID, "status", status, "cells", m.plan.Cells)
}

// appendEventLocked stamps and appends one event (Matrix.mu held).
func (m *Matrix) appendEventLocked(ev Event) {
	ev.Seq = len(m.events)
	ev.At = time.Now()
	m.events = append(m.events, ev)
	m.signalLocked()
}

// signalLocked wakes every worker and stream waiting on the matrix
// (Matrix.mu held).
func (m *Matrix) signalLocked() {
	close(m.changed)
	m.changed = make(chan struct{})
}

// EventsSince returns the events after seq, whether the matrix has
// reached a terminal state (so SSE handlers know when to stop), and a
// channel closed when the next event is appended.
func (m *Matrix) EventsSince(seq int) ([]Event, bool, <-chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if seq < 0 {
		seq = 0
	}
	var evs []Event
	if seq < len(m.events) {
		evs = append(evs, m.events[seq:]...)
	}
	return evs, m.status != StatusRunning, m.changed
}

func (m *Matrix) terminal() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.status != StatusRunning
}

// shardViewLocked renders one shard's state (Matrix.mu held).
func (m *Matrix) shardViewLocked(id int) ShardView {
	sr := m.shards[id]
	sh := m.plan.Shards[id]
	sv := ShardView{
		ID:        id,
		Workload:  sh.Workload,
		Cells:     len(sh.Cells),
		State:     sr.state,
		Assigned:  sr.assigned,
		Owner:     sr.owner,
		Stolen:    sr.stolen,
		Attempts:  sr.attempts,
		CacheHits: sr.cacheHits,
		Restored:  sr.restored,
		Error:     sr.errMsg,
	}
	switch {
	case !sr.finishAt.IsZero() && !sr.startedAt.IsZero():
		sv.ElapsedMS = float64(sr.finishAt.Sub(sr.startedAt).Milliseconds())
	case !sr.startedAt.IsZero():
		sv.ElapsedMS = float64(time.Since(sr.startedAt).Milliseconds())
	}
	return sv
}

// View renders the matrix's full status, including the current
// (partial or final) tables.
func (m *Matrix) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := View{
		ID:         m.plan.ID,
		Status:     m.status,
		Workloads:  len(m.plan.Shards),
		Instrs:     m.plan.Spec.Instrs,
		Sampled:    m.plan.Spec.Sampling != nil,
		Created:    m.plan.Created,
		CellsTotal: m.plan.Cells,
		Resumed:    m.resumed,
		Restored:   m.restored,
		Error:      m.errMsg,
		Targets:    append([]string(nil), m.targets...),
	}
	_, v.Schemes = planAxes(m.plan)
	if !m.started.IsZero() {
		t := m.started
		v.Started = &t
		if !m.finished.IsZero() {
			f := m.finished
			v.Finished = &f
			v.ElapsedMS = float64(f.Sub(t).Milliseconds())
		} else {
			v.ElapsedMS = float64(time.Since(t).Milliseconds())
		}
	}
	for i := range m.shards {
		sv := m.shardViewLocked(i)
		v.Shards = append(v.Shards, sv)
		switch sv.State {
		case ShardPending:
			v.Counts.Pending++
		case ShardRunning:
			v.Counts.Running++
		case ShardDone:
			v.Counts.Done++
		case ShardCancelled:
			v.Counts.Cancelled++
		case ShardFailed:
			v.Counts.Failed++
		}
		if sv.Stolen {
			v.Stolen++
		}
		v.CacheHits += sv.CacheHits
	}
	v.CellsDone = len(m.cells)
	if m.tables != nil {
		v.Tables = m.tables
	} else {
		v.Tables = Aggregate(m.plan, m.cells)
	}
	return v
}

// Get returns a matrix by ID.
func (o *Orchestrator) Get(id string) (*Matrix, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m, ok := o.matrices[id]
	return m, ok
}

// List returns every retained matrix, oldest first.
func (o *Orchestrator) List() []*Matrix {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Matrix, 0, len(o.order))
	for _, id := range o.order {
		out = append(out, o.matrices[id])
	}
	return out
}

// Cancel requests cancellation of a running matrix. It reports whether
// the matrix exists; cancelling a terminal matrix is a no-op.
func (o *Orchestrator) Cancel(id string) bool {
	m, ok := o.Get(id)
	if !ok {
		return false
	}
	m.mu.Lock()
	m.userCancel = true
	cancel := m.cancel
	m.mu.Unlock()
	cancel()
	return true
}

// Close cancels every running matrix and waits for their workers to
// drain. Terminal state still persists on the way down, which is what
// Resume replays after restart.
func (o *Orchestrator) Close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.stop()
	o.runWG.Wait()
}

// persist snapshots m into the store (no-op without one). The per-matrix
// persist mutex spans snapshot and save together, so concurrent callers
// write in snapshot order and the newest state always lands last — the
// "state on disk after every shard completion" contract survives two
// shards finishing at once.
func (o *Orchestrator) persist(m *Matrix) {
	if o.store == nil {
		return
	}
	m.persistMu.Lock()
	defer m.persistMu.Unlock()
	if err := o.store.Save(m.snapshot()); err != nil {
		o.obs.Log.Warn("matrix: persist failed", "matrix", m.plan.ID, "err", err)
	}
}
