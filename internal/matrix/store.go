package matrix

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// ShardState is one shard's persisted scheduling state.
type ShardState struct {
	ID        int     `json:"id"`
	State     string  `json:"state"`
	Assigned  string  `json:"assigned,omitempty"`
	Owner     string  `json:"owner,omitempty"`
	Stolen    bool    `json:"stolen,omitempty"`
	Attempts  int     `json:"attempts,omitempty"`
	CacheHits int     `json:"cache_hits,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// State is the on-disk form of one matrix: the immutable plan plus
// enough progress to resume. Completed cells carry their full stats, so
// a restarted coordinator replays them without touching the cluster;
// everything else re-executes and lands on the peers' content-addressed
// result caches.
type State struct {
	Plan     Plan         `json:"plan"`
	Status   string       `json:"status"`
	Error    string       `json:"error,omitempty"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
	Resumed  bool         `json:"resumed,omitempty"`
	Shards   []ShardState `json:"shards"`
	Cells    []CellResult `json:"cells"`
}

// snapshot captures m as a persistable State.
func (m *Matrix) snapshot() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := State{
		Plan:    m.plan,
		Status:  m.status,
		Error:   m.errMsg,
		Resumed: m.resumed,
	}
	if !m.started.IsZero() {
		t := m.started
		st.Started = &t
	}
	if !m.finished.IsZero() {
		t := m.finished
		st.Finished = &t
	}
	for i := range m.shards {
		sv := m.shardViewLocked(i)
		st.Shards = append(st.Shards, ShardState{
			ID:        i,
			State:     sv.State,
			Assigned:  sv.Assigned,
			Owner:     sv.Owner,
			Stolen:    sv.Stolen,
			Attempts:  sv.Attempts,
			CacheHits: sv.CacheHits,
			ElapsedMS: sv.ElapsedMS,
			Error:     sv.Error,
		})
	}
	st.Cells = make([]CellResult, 0, len(m.cells))
	for _, c := range m.cells {
		st.Cells = append(st.Cells, c)
	}
	// Key-sorted cells keep the file deterministic for a given progress
	// state regardless of completion order.
	sort.Slice(st.Cells, func(i, j int) bool { return st.Cells[i].Key < st.Cells[j].Key })
	return st
}

// Store persists one JSON file per matrix under a directory, written
// atomically (temp + rename) so a crash mid-save never corrupts state.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a matrix state directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("matrix: store requires a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(id string) string {
	return filepath.Join(s.dir, id+".json")
}

// Save writes st atomically. The temp file is synced before the rename,
// so after a power loss the file holds either the old state or the new
// one, never a renamed but empty file. On any failure the temp file is
// removed.
func (s *Store) Save(st State) (err error) {
	if st.Plan.ID == "" {
		return fmt.Errorf("matrix: state has no plan ID")
	}
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "."+st.Plan.ID+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close() // already closed unless Write or Sync failed
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.path(st.Plan.ID))
}

// Load reads one matrix state by ID.
func (s *Store) Load(id string) (State, error) {
	var st State
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, err
	}
	return st, nil
}

// LoadAll reads every persisted matrix, oldest plan first.
func (s *Store) LoadAll() ([]State, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []State
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		st, err := s.Load(strings.TrimSuffix(name, ".json"))
		if err != nil {
			// A torn or foreign file must not block boot; skip it.
			continue
		}
		if st.Plan.ID == "" {
			continue
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Plan.Created.Before(out[j].Plan.Created) })
	return out, nil
}

// Delete removes one matrix state (missing files are fine).
func (s *Store) Delete(id string) error {
	err := os.Remove(s.path(id))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Resume reloads persisted matrices after a daemon restart: terminal
// ones re-register for inspection, and interrupted ones restart with
// their completed shards pre-committed from the persisted cells — the
// remaining shards re-execute, where the peers' content-addressed result
// caches turn any work that actually finished before the crash into
// instant hits. It returns how many matrices went back into flight.
func (o *Orchestrator) Resume() (int, error) {
	if o.store == nil {
		return 0, nil
	}
	states, err := o.store.LoadAll()
	if err != nil {
		return 0, err
	}
	resumed := 0
	for _, st := range states {
		m := matrixFromState(st)
		if err := o.register(m); err != nil {
			o.obs.Log.Warn("matrix: resume register failed", "matrix", st.Plan.ID, "err", err)
			continue
		}
		if m.terminal() {
			continue
		}
		resumed++
		o.obs.Log.Info("matrix: resuming", "matrix", m.plan.ID, "restored_cells", m.restored, "shards", len(m.plan.Shards))
		o.start(m)
	}
	return resumed, nil
}

// matrixFromState rebuilds runtime state from a persisted snapshot.
func matrixFromState(st State) *Matrix {
	// The cell count comes from the shards, not from the file.
	st.Plan.Cells = 0
	for _, sh := range st.Plan.Shards {
		st.Plan.Cells += len(sh.Cells)
	}
	m := newMatrix(st.Plan)
	m.resumed = st.Status == StatusRunning
	m.errMsg = st.Error
	if st.Started != nil {
		m.started = *st.Started
	}

	doneShards := make(map[int]bool, len(st.Shards))
	for _, ss := range st.Shards {
		if ss.ID < 0 || ss.ID >= len(m.shards) {
			continue
		}
		sr := m.shards[ss.ID]
		terminalMatrix := st.Status != StatusRunning
		if ss.State == ShardDone || terminalMatrix {
			// Keep terminal shard states verbatim; for an interrupted matrix
			// only done shards survive — the rest go back to pending with a
			// fresh attempt budget.
			sr.state = ss.State
			if sr.state == ShardRunning || (sr.state == ShardPending && terminalMatrix) {
				sr.state = ShardCancelled
			}
			sr.owner = ss.Owner
			sr.stolen = ss.Stolen
			sr.attempts = ss.Attempts
			sr.cacheHits = ss.CacheHits
			sr.errMsg = ss.Error
			sr.restored = true
			doneShards[ss.ID] = ss.State == ShardDone
		}
		sr.assigned = ss.Assigned
	}

	// Only cells of completed shards restore: a crash between a cell
	// finishing and its shard committing re-runs the whole shard, and the
	// peers' result caches absorb the repeat.
	shardByWorkload := make(map[string]int, len(st.Plan.Shards))
	for i, sh := range st.Plan.Shards {
		shardByWorkload[sh.Workload] = i
	}
	for _, c := range st.Cells {
		if id, ok := shardByWorkload[c.Workload]; ok && doneShards[id] {
			c.Restored = true
			m.cells[c.Key] = c
			m.restored++
		}
	}

	if st.Status != StatusRunning {
		m.status = st.Status
		if st.Finished != nil {
			m.finished = *st.Finished
		}
		m.tables = Aggregate(m.plan, m.cells)
		evType := map[string]string{StatusDone: "done", StatusCancelled: "cancelled", StatusFailed: "error"}[st.Status]
		m.appendEventLocked(Event{Type: evType, Tables: m.tables, Error: st.Error})
		close(m.done)
		return m
	}

	if m.restored > 0 || len(doneShards) > 0 {
		m.appendEventLocked(Event{Type: "resumed", Tables: Aggregate(m.plan, m.cells)})
	}
	return m
}
