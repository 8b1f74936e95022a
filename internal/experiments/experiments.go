// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 4-5). Each driver regenerates the artifact's
// rows/series from the simulator and returns them as renderable tables plus
// structured results, so the CLI (cmd/experiments), the HTTP daemon
// (cmd/dlvpd) and the benchmark harness (bench_test.go) can replay them.
//
// All simulation goes through internal/runner: drivers build (workload x
// config) job matrices and submit them to a shared engine, which bounds
// parallelism, honours cancellation, and serves repeated jobs (the Table 4
// baseline appears in most figures) from its content-addressed cache. The
// trace-level measurements (Figures 1, 2 and 4) need no timing model: they
// observe each workload's committed stream through streamPool, which
// emulates every workload once however many measurements ride on it.
package experiments

import (
	"context"
	"slices"
	"sync"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/runner"
	"dlvp/internal/tabletext"
	"dlvp/internal/trace"
	"dlvp/internal/workloads"
)

// Engine executes simulation jobs on behalf of the experiment drivers.
// Both *runner.Runner (in-process pool) and *dispatch.Dispatcher
// (multi-backend scatter/gather) satisfy it, so a clustered daemon routes
// matrix jobs across its peers while the CLIs keep running in-process.
// Matrices fan out over Run through runner.FanOut.
type Engine interface {
	Run(ctx context.Context, job runner.Job) (metrics.RunStats, bool, error)
}

// Params bounds an experiment run.
type Params struct {
	// Instrs is the dynamic-instruction budget per workload (the paper used
	// 100M-instruction SimPoints; these kernels converge far earlier).
	Instrs uint64
	// Workloads restricts the pool (nil = every registered workload).
	Workloads []string
	// Sampling, when non-nil, runs every matrix job as a checkpointed
	// sampled simulation (K intervals, warm-up + measured region each)
	// instead of one monolithic detailed run. Sampled artifacts trade a
	// bounded statistical error for a large wall-clock reduction; see
	// EXPERIMENTS.md.
	Sampling *runner.SamplingSpec
	// Ctx cancels in-flight experiment work (nil = context.Background()).
	Ctx context.Context `json:"-"`
	// Runner executes the simulation jobs (nil = a process-wide shared
	// engine with the default result cache). Any Engine works: the HTTP
	// daemon passes its dispatcher here so matrices scatter across peers.
	Runner Engine `json:"-"`
}

// DefaultParams returns the standard experiment sizing.
func DefaultParams() Params {
	return Params{Instrs: 300_000}
}

var (
	defaultRunnerOnce sync.Once
	defaultRunner     *runner.Runner
)

// DefaultRunner returns the process-wide shared engine used when Params
// does not name one. Its cache persists across experiments, so regenerating
// several figures reuses their common baseline runs.
func DefaultRunner() *runner.Runner {
	defaultRunnerOnce.Do(func() { defaultRunner = runner.New(runner.Options{}) })
	return defaultRunner
}

func (p Params) runner() Engine {
	if p.Runner != nil {
		return p.Runner
	}
	return DefaultRunner()
}

func (p Params) ctx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// pool resolves the workload list.
func (p Params) pool() ([]workloads.Workload, error) {
	if len(p.Workloads) == 0 {
		return workloads.All(), nil
	}
	var out []workloads.Workload
	for _, name := range p.Workloads {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, &runner.UnknownWorkloadError{Name: name}
		}
		out = append(out, w)
	}
	return out, nil
}

// JobSpec couples one runner job with its (workload, scheme) slot in an
// experiment matrix. It is the planning currency between the experiment
// drivers (which decompose a figure into its simulations) and whatever
// executes them — the in-process engine (runMatrix), the dispatcher, or
// the cluster-wide matrix orchestrator (internal/matrix), which scatters
// specs across peers as shards instead of running them here.
type JobSpec struct {
	Workload string     `json:"workload"`
	Scheme   string     `json:"scheme"`
	Job      runner.Job `json:"job"`
}

// PlanMatrix decomposes the (workload x scheme) experiment matrix into
// job specs without running anything. Specs come out in deterministic
// (workload, sorted scheme) order, so every consumer — local fan-out and
// distributed sharding alike — sees the same plan for the same inputs.
func (p Params) PlanMatrix(cfgs map[string]config.Core) ([]JobSpec, error) {
	pool, err := p.pool()
	if err != nil {
		return nil, err
	}
	schemes := make([]string, 0, len(cfgs))
	for name := range cfgs {
		schemes = append(schemes, name)
	}
	slices.Sort(schemes)

	specs := make([]JobSpec, 0, len(pool)*len(schemes))
	for _, w := range pool {
		for _, scheme := range schemes {
			specs = append(specs, JobSpec{
				Workload: w.Name,
				Scheme:   scheme,
				Job:      runner.Job{Workload: w.Name, Config: cfgs[scheme], Instrs: p.Instrs, Sampling: p.Sampling},
			})
		}
	}
	return specs, nil
}

// fanOut runs the planned jobs through run and returns their results in
// plan order. The engine behind run decides how many run at once.
func fanOut[R any](p Params, specs []JobSpec, run func(context.Context, runner.Job) (R, bool, error)) ([]R, error) {
	jobs := make([]runner.Job, len(specs))
	for i, s := range specs {
		jobs[i] = s.Job
	}
	return runner.FanOut(p.ctx(), jobs, runner.Matrix{}, run)
}

// runMatrix simulates every workload under every named configuration via
// the engine. Jobs are planned by PlanMatrix in deterministic (workload,
// scheme) order.
func runMatrix(p Params, cfgs map[string]config.Core) (grid, error) {
	specs, err := p.PlanMatrix(cfgs)
	if err != nil {
		return grid{}, err
	}
	stats, err := fanOut(p, specs, p.runner().Run)
	if err != nil {
		return grid{}, err
	}
	g := grid{cells: make(map[cell]metrics.RunStats, len(specs))}
	for i, s := range specs {
		g.cells[cell{s.Workload, s.Scheme}] = stats[i]
		g.names = append(g.names, s.Workload)
	}
	slices.Sort(g.names)
	g.names = slices.Compact(g.names)
	return g, nil
}

// observer consumes one workload's committed record stream in order.
type observer interface{ Observe(*trace.Rec) }

// probe opens the observers one measurement needs for workload w's stream
// and a done func (nil when there is nothing to fold) that folds their
// results into the measurement once the stream ends.
type probe func(w workloads.Workload) (obs []observer, done func())

// streamCheckRecords is how many records streamPool feeds between two
// looks at its context.
const streamCheckRecords = 4096

// streamPool emulates each workload of the pool once, in pool order, and
// feeds every record to the observers each probe opens for it. p's context
// is checked before each workload and every streamCheckRecords records. A
// workload's observers are released once its stream ends and its done
// funcs have run, so memory stays bounded by one workload's observers
// however large the pool.
func streamPool(p Params, probes ...probe) error {
	pool, err := p.pool()
	if err != nil {
		return err
	}
	ctx := p.ctx()
	for _, w := range pool {
		if err := ctx.Err(); err != nil {
			return err
		}
		var obs []observer
		var dones []func()
		for _, open := range probes {
			o, done := open(w)
			obs = append(obs, o...)
			if done != nil {
				dones = append(dones, done)
			}
		}
		r := w.Reader(p.Instrs)
		var rec trace.Rec
		for n := 1; r.Next(&rec); n++ {
			for _, o := range obs {
				o.Observe(&rec)
			}
			if n%streamCheckRecords == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		for _, done := range dones {
			done()
		}
	}
	return nil
}

// Experiment identifies one regenerable artifact.
type Experiment struct {
	ID   string // "fig1" .. "fig10", "tab1" .. "tab4"
	Name string
	Run  func(Params) ([]*tabletext.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1", Name: "Figure 1: loads consuming values produced by stores since their prior instance", Run: Fig1},
		{ID: "fig2", Name: "Figure 2: repeatability of load addresses vs values", Run: Fig2},
		{ID: "tab1", Name: "Table 1: APT entry fields and storage", Run: Tab1},
		{ID: "tab2", Name: "Table 2: VPE design area/energy", Run: Tab2},
		{ID: "tab3", Name: "Table 3: application pool", Run: Tab3},
		{ID: "tab4", Name: "Table 4: baseline core configuration", Run: Tab4},
		{ID: "fig4", Name: "Figure 4: standalone address prediction accuracy and coverage (PAP vs CAP)", Run: Fig4},
		{ID: "fig5", Name: "Figure 5: benefit of DLVP-generated prefetches", Run: Fig5},
		{ID: "fig6", Name: "Figure 6: CAP vs VTAGE vs DLVP (speedup, coverage, energy, predictor cost)", Run: Fig6},
		{ID: "fig7", Name: "Figure 7: VTAGE flavours (filters, loads-only vs all instructions)", Run: Fig7},
		{ID: "fig8", Name: "Figure 8: combining DLVP and VTAGE (tournament)", Run: Fig8},
		{ID: "fig9", Name: "Figure 9: selected benchmarks where speedup and coverage decouple", Run: Fig9},
		{ID: "fig10", Name: "Figure 10: flush vs oracle-replay recovery", Run: Fig10},
		{ID: "ablations", Name: "Extension: design-choice ablations the paper describes but does not tabulate", Run: Ablations},
		{ID: "dvtage", Name: "Extension: the differential D-VTAGE related-work predictor vs VTAGE and DLVP", Run: DVTAGEComparison},
		{ID: "sites", Name: "Extension: top mispredicting load sites per scheme, cause-attributed", Run: Sites},
		{ID: "summary", Name: "Headline paper-vs-measured digest (the EXPERIMENTS.md numbers)", Run: Summary},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
