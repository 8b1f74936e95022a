// Package matrix is the cluster-wide experiment orchestrator: it turns a
// whole (workload x scheme) sweep — not just a single run — into a
// first-class distributed workload.
//
// A submitted Spec is decomposed into its job DAG: per-workload shards
// (each shard's first detailed run captures the workload's functional
// trace, which the runner's trace cache then replays to the shard's
// remaining schemes, and its table contribution feeds the final
// aggregation). Shards scatter across the dispatch ring by content
// address — the same rendezvous hash the per-job router uses — so a
// shard lands on the peer whose trace/checkpoint/result caches already
// hold its workload.
//
// Every pending shard waits on one target: its rendezvous choice, or the
// target a requeue after a failure moved it to. A healthy target's idle
// worker claims the first shard waiting on it, or else steals the last
// shard waiting on another target, so a slow or dead peer's backlog
// drains through whoever has spare capacity without double-counting
// results. Scheduling is driven by events, not polls: idle workers sleep
// until a shard completes, fails, is requeued or is cancelled, and the
// SSE stream delivers each event (with the refreshed partial tables) as
// it is appended. The plan plus per-shard state persist to disk, so a
// coordinator restart resumes the matrix by replaying content-addressed
// cache hits instead of re-simulating finished work.
package matrix

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/experiments"
	"dlvp/internal/metrics"
	"dlvp/internal/runner"
	"dlvp/internal/tabletext"
)

// Shard lifecycle states reported by View and the SSE stream.
const (
	ShardPending   = "pending"
	ShardRunning   = "running"
	ShardDone      = "done"
	ShardCancelled = "cancelled"
	ShardFailed    = "failed"
)

// Matrix lifecycle states.
const (
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusCancelled = "cancelled"
	StatusFailed    = "failed"
)

// Spec defines one experiment matrix: every named scheme simulated on
// every named workload for Instrs dynamic instructions.
type Spec struct {
	// Workloads restricts the pool (empty = every registered workload).
	Workloads []string `json:"workloads,omitempty"`
	// Schemes are registry preset names (config.ByScheme).
	Schemes []string `json:"schemes"`
	// Configs adds explicitly-parameterised columns (name -> core config),
	// e.g. ablated variants; names must not collide with Schemes.
	Configs map[string]config.Core `json:"configs,omitempty"`
	// Instrs is the per-cell dynamic-instruction budget (required).
	Instrs uint64 `json:"instrs"`
	// Sampling, when non-nil, runs every cell as a checkpointed sampled
	// simulation.
	Sampling *runner.SamplingSpec `json:"sampling,omitempty"`
}

// resolveConfigs expands scheme names plus explicit configs into the
// named-configuration set, rejecting unknown schemes, collisions and
// explicit configs that fail config.Core.Validate.
func (s Spec) resolveConfigs() (map[string]config.Core, error) {
	cfgs := make(map[string]config.Core, len(s.Schemes)+len(s.Configs))
	for _, name := range s.Schemes {
		c, ok := config.ByScheme(name)
		if !ok {
			return nil, fmt.Errorf("matrix: unknown scheme %q", name)
		}
		if _, dup := cfgs[name]; dup {
			return nil, fmt.Errorf("matrix: duplicate scheme %q", name)
		}
		cfgs[name] = c
	}
	for name, c := range s.Configs {
		if name == "" {
			return nil, fmt.Errorf("matrix: explicit config with empty name")
		}
		if _, dup := cfgs[name]; dup {
			return nil, fmt.Errorf("matrix: config %q collides with a scheme of the same name", name)
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("matrix: config %q: %w", name, err)
		}
		cfgs[name] = c
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("matrix: spec names no schemes or configs")
	}
	return cfgs, nil
}

// Cell is one (workload, scheme) simulation of the matrix. Key is the
// job's content address — the identity under which its result lives in
// every result cache on the ring and in the persisted matrix state.
type Cell struct {
	Workload string     `json:"workload"`
	Scheme   string     `json:"scheme"`
	Key      string     `json:"key"`
	Job      runner.Job `json:"job"`
}

// Shard is the scatter unit: every scheme of one workload. Grouping by
// workload makes the shard self-contained for the executing peer — a
// sampled shard's first cell builds the workload's checkpoint chain and a
// full shard's first cell captures its functional trace, and the
// remaining cells reuse them — and Key (the content address of the
// workload-level prerequisite) is what the rendezvous ring hashes, so
// repeated matrices land each shard on the peer already holding those
// caches.
type Shard struct {
	ID       int    `json:"id"`
	Workload string `json:"workload"`
	Key      string `json:"key"`
	Cells    []Cell `json:"cells"`
}

// Plan is the decomposed, executable form of a Spec.
type Plan struct {
	ID      string    `json:"id"`
	Spec    Spec      `json:"spec"`
	Shards  []Shard   `json:"shards"`
	Cells   int       `json:"cells"`
	Created time.Time `json:"created"`
}

// shardKey content-addresses a shard's workload-level prerequisite: the
// (workload, instrs, sampling) triple that keys the trace and checkpoint
// caches. Scheme configs are deliberately excluded — every scheme of the
// workload shares the same captured trace, so they must co-locate.
func shardKey(workload string, instrs uint64, sampling *runner.SamplingSpec) string {
	payload, _ := json.Marshal(struct {
		Workload string               `json:"workload"`
		Instrs   uint64               `json:"instrs"`
		Sampling *runner.SamplingSpec `json:"sampling,omitempty"`
	}{workload, instrs, sampling})
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// newMatrixID returns a fresh random matrix identifier.
func newMatrixID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000000")))
	}
	return hex.EncodeToString(b[:])
}

// NewPlan validates spec and decomposes it into per-workload shards. The
// experiment drivers' planner (experiments.PlanMatrix) emits the job
// specs, so a distributed matrix runs exactly the jobs a single-process
// driver would.
func NewPlan(spec Spec) (Plan, error) {
	if spec.Instrs == 0 {
		return Plan{}, fmt.Errorf("matrix: spec requires instrs > 0")
	}
	if spec.Sampling != nil {
		if _, err := spec.Sampling.Normalize(spec.Instrs); err != nil {
			return Plan{}, err
		}
	}
	cfgs, err := spec.resolveConfigs()
	if err != nil {
		return Plan{}, err
	}
	p := experiments.Params{Instrs: spec.Instrs, Workloads: spec.Workloads, Sampling: spec.Sampling}
	specs, err := p.PlanMatrix(cfgs)
	if err != nil {
		return Plan{}, err
	}
	if len(specs) == 0 {
		return Plan{}, fmt.Errorf("matrix: empty plan (no workloads)")
	}

	plan := Plan{ID: newMatrixID(), Spec: spec, Created: time.Now()}
	// PlanMatrix emits workload-major order, so one pass groups cells into
	// per-workload shards.
	for _, js := range specs {
		key, err := js.Job.Key()
		if err != nil {
			return Plan{}, err
		}
		cell := Cell{Workload: js.Workload, Scheme: js.Scheme, Key: key, Job: js.Job}
		if n := len(plan.Shards); n == 0 || plan.Shards[n-1].Workload != js.Workload {
			plan.Shards = append(plan.Shards, Shard{
				ID:       n,
				Workload: js.Workload,
				Key:      shardKey(js.Workload, spec.Instrs, spec.Sampling),
			})
		}
		s := &plan.Shards[len(plan.Shards)-1]
		s.Cells = append(s.Cells, cell)
		plan.Cells++
	}
	return plan, nil
}

// CellResult is one completed cell: its statistics plus execution
// provenance (which peer ran it, whether a cache served it, how long it
// took, and whether it was restored from persisted state on resume).
type CellResult struct {
	Key       string           `json:"key"`
	Workload  string           `json:"workload"`
	Scheme    string           `json:"scheme"`
	Stats     metrics.RunStats `json:"stats"`
	Cached    bool             `json:"cached"`
	Peer      string           `json:"peer"`
	ElapsedMS int64            `json:"elapsed_ms"`
	Restored  bool             `json:"restored,omitempty"`
}

// ShardView is one shard's state as reported by GET /v1/matrices/{id}
// and the SSE stream.
type ShardView struct {
	ID       int    `json:"id"`
	Workload string `json:"workload"`
	Cells    int    `json:"cells"`
	State    string `json:"state"`
	// Assigned is the rendezvous-preferred target; Owner is who actually
	// ran (or is running) it. They differ when the shard was stolen or
	// requeued after a peer failure.
	Assigned  string  `json:"assigned"`
	Owner     string  `json:"owner,omitempty"`
	Stolen    bool    `json:"stolen,omitempty"`
	Attempts  int     `json:"attempts"`
	CacheHits int     `json:"cache_hits"`
	Restored  bool    `json:"restored,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Error     string  `json:"error,omitempty"`
}

// Counts aggregates shard states.
type Counts struct {
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Cancelled int `json:"cancelled"`
	Failed    int `json:"failed"`
}

// View is the full status payload for one matrix.
type View struct {
	ID         string             `json:"id"`
	Status     string             `json:"status"`
	Workloads  int                `json:"workloads"`
	Schemes    []string           `json:"schemes"`
	Instrs     uint64             `json:"instrs"`
	Sampled    bool               `json:"sampled"`
	Created    time.Time          `json:"created"`
	Started    *time.Time         `json:"started,omitempty"`
	Finished   *time.Time         `json:"finished,omitempty"`
	ElapsedMS  float64            `json:"elapsed_ms"`
	Shards     []ShardView        `json:"shards"`
	Counts     Counts             `json:"counts"`
	CellsDone  int                `json:"cells_done"`
	CellsTotal int                `json:"cells_total"`
	CacheHits  int                `json:"cache_hits"`
	Stolen     int                `json:"stolen"`
	Resumed    bool               `json:"resumed,omitempty"`
	Restored   int                `json:"restored_cells,omitempty"`
	Error      string             `json:"error,omitempty"`
	Tables     []*tabletext.Table `json:"tables,omitempty"`
	Targets    []string           `json:"targets,omitempty"`
}

// Event is one entry of a matrix's progress stream, delivered over SSE
// (GET /v1/matrices/{id}/stream) with the same discipline as the
// timeline stream: "shard" events as shards complete (each carrying the
// updated partial tables), a "resumed" event when a restarted
// coordinator replays persisted shards, and a terminal "done" /
// "cancelled" / "error" event carrying the final tables.
type Event struct {
	Type   string             `json:"type"` // "shard" | "resumed" | "done" | "cancelled" | "error"
	Seq    int                `json:"seq"`
	At     time.Time          `json:"at"`
	Shard  *ShardView         `json:"shard,omitempty"`
	Tables []*tabletext.Table `json:"tables,omitempty"`
	Error  string             `json:"error,omitempty"`
}
