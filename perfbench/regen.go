package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"dlvp/internal/experiments"
	"dlvp/internal/metrics"
	"dlvp/internal/obs"
	"dlvp/internal/runner"
	"dlvp/internal/tracecache"
)

const (
	regenExperiment = "summary"
	// regenTraceCacheBytes is cmd/experiments' default trace-cache budget.
	regenTraceCacheBytes = 512 << 20
	regenDigestPath      = "perfbench/regen_digest.json"
	// regenSetups is how many engines each unit constructs and times; the
	// last one runs the unit.
	regenSetups = 64
)

// regenEngine is what cmd/experiments constructs before it simulates: a
// trace cache, a runner over it and the experiment driver, plus, in traced
// units, the observer the runner reports to.
type regenEngine struct {
	tc  *tracecache.Cache
	rec *recorder
	exp experiments.Experiment
	ob  *obs.Observer // nil when untraced
}

func newRegenEngine(traced bool) (regenEngine, error) {
	var g regenEngine
	g.tc = tracecache.New(regenTraceCacheBytes)
	ro := runner.Options{TraceCache: g.tc}
	if traced {
		g.ob = obs.NewObserver(nil)
		ro.Obs = g.ob
	}
	g.rec = &recorder{r: runner.New(ro)}
	var ok bool
	if g.exp, ok = experiments.ByID(regenExperiment); !ok {
		return g, fmt.Errorf("experiment %q is not registered", regenExperiment)
	}
	return g, nil
}

// recorder is the engine the regen workload hands the experiment drivers:
// it passes every call to the runner and keeps each job's statistics for
// the output check.
type recorder struct {
	r     *runner.Runner
	mu    sync.Mutex
	jobs  []runner.Job
	stats []metrics.RunStats
}

func (c *recorder) Run(ctx context.Context, job runner.Job) (metrics.RunStats, bool, error) {
	st, cached, err := c.r.Run(ctx, job)
	if err == nil {
		c.keep([]runner.Job{job}, []metrics.RunStats{st})
	}
	return st, cached, err
}

func (c *recorder) RunAll(ctx context.Context, jobs []runner.Job, opt runner.Matrix) ([]metrics.RunStats, error) {
	out, err := c.r.RunAll(ctx, jobs, opt)
	if err == nil {
		c.keep(jobs, out)
	}
	return out, err
}

func (c *recorder) keep(jobs []runner.Job, stats []metrics.RunStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobs = append(c.jobs, jobs...)
	c.stats = append(c.stats, stats...)
}

// regenDigest is what a regeneration must reproduce exactly.
type regenDigest struct {
	Experiment   string `json:"experiment"`
	Instrs       uint64 `json:"instrs"`
	Jobs         int    `json:"jobs"`         // distinct simulation jobs
	Instructions uint64 `json:"instructions"` // committed, summed over distinct jobs
	Cycles       uint64 `json:"cycles"`       // simulated, summed over distinct jobs
	StatsSHA256  string `json:"runstats_sha256"`
	TablesSHA256 string `json:"tables_sha256"`
}

func (c *recorder) digest(instrs uint64, tables any) (regenDigest, error) {
	d := regenDigest{Experiment: regenExperiment, Instrs: instrs}
	type keyed struct {
		Key   string           `json:"key"`
		Stats metrics.RunStats `json:"stats"`
	}
	byKey := map[string]metrics.RunStats{}
	for i, j := range c.jobs {
		k, err := j.Key()
		if err != nil {
			return d, err
		}
		byKey[k] = c.stats[i]
	}
	all := make([]keyed, 0, len(byKey))
	for k, st := range byKey {
		all = append(all, keyed{k, st})
		d.Instructions += st.Instructions
		d.Cycles += st.Cycles
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	d.Jobs = len(all)
	d.StatsSHA256 = sha256JSON(all)
	d.TablesSHA256 = sha256JSON(tables)
	return d, nil
}

func sha256JSON(v any) string {
	sum := sha256.Sum256([]byte(mustJSON(v)))
	return hex.EncodeToString(sum[:])
}

// regenUnit regenerates the headline digest once on a fresh engine.
func regenUnit(e *env, traced bool) (unit, error) {
	u := unit{layers: map[string]float64{}}
	// Release the previous unit's engine so each unit's peak is its own.
	runtime.GC()
	debug.FreeOSMemory()
	var g regenEngine
	for i := 0; i < regenSetups; i++ {
		t := time.Now()
		var err error
		if g, err = newRegenEngine(traced); err != nil {
			return u, err
		}
		u.setup = append(u.setup, time.Since(t))
	}
	tc, rec, exp, ob := g.tc, g.rec, g.exp, g.ob

	ctx := e.ctx
	traceID := fmt.Sprintf("regen-%d", e.seed)
	if traced {
		ob.Tracer.Begin(traceID)
		ctx = obs.ContextWithTrace(ctx, ob.Tracer, traceID)
	}
	p := experiments.DefaultParams()
	p.Runner = rec
	p.Ctx = ctx

	var sp *spans
	if traced {
		sp = e.spans
	}
	stopProfile, err := startCPUProfile(sp != nil, e.outPath(fmt.Sprintf("unit%d-cpu.pprof", e.index)))
	if err != nil {
		return u, err
	}
	rss := sampleSelfRSS()
	_, end := sp.start(traceID, "experiments."+regenExperiment+".Run", 0)
	t0, c0 := time.Now(), selfCPUTime()
	tables, err := exp.Run(p)
	u.wall, u.cpu = time.Since(t0), selfCPUTime()-c0
	end()
	u.rssMB = rss()
	stopProfile()
	if err != nil {
		return u, fmt.Errorf("regenerate %s: %w", regenExperiment, err)
	}

	d, err := rec.digest(p.Instrs, tables)
	if err != nil {
		return u, err
	}
	u.attempted = int64(len(rec.jobs))
	if e.writeDigest {
		if err := writeJSON(regenDigestPath, d); err != nil {
			return u, err
		}
	} else if err := checkRegenDigest(d); err != nil {
		e.mismatch("%v", err)
	}

	rs := rec.r.Stats()
	ts := tc.Stats()
	l := u.layers
	l["sim.instructions"] = float64(d.Instructions)
	l["sim.cycles"] = float64(d.Cycles)
	l["tracecache.emulations"] = float64(ts.Emulations)
	l["tracecache.evictions"] = float64(ts.Evictions)
	l["tracecache.hit_ratio"] = ts.HitRatio()
	l["tracecache.resident_kernels"] = float64(ts.Entries)
	if cs := rs.Checkpoints; cs != nil {
		l["checkpoint.builds"] = float64(cs.Chained + cs.Cold)
		l["checkpoint.hits"] = float64(cs.Hits)
		l["checkpoint.evictions"] = float64(cs.Evictions)
	}
	l["runner.cache_hit_ratio"] = rs.HitRatio()
	l["runner.sim_s"] = rs.SimSeconds
	if traced {
		var text strings.Builder
		ob.Metrics.WritePrometheus(&text)
		prom := parseProm(text.String(), "")
		l["runner.queue_wait_ms.mean"] = 1e3 * mean(prom["dlvpd_runner_queue_wait_seconds_sum"], prom["dlvpd_runner_queue_wait_seconds_count"])
		l["runner.sim_ms.mean"] = 1e3 * mean(prom["dlvpd_runner_sim_duration_seconds_sum"], prom["dlvpd_runner_sim_duration_seconds_count"])
		if view, ok := ob.Tracer.Get(traceID); ok {
			acc := map[string]float64{}
			foldSelfTimes(obs.Assemble([]obs.InstanceSpans{{Instance: "regen", Spans: view.Spans}}).Roots, acc)
			addSelfTimes(acc, l)
		}
	}
	return u, nil
}

func checkRegenDigest(got regenDigest) error {
	b, err := os.ReadFile(regenDigestPath)
	if err != nil {
		return fmt.Errorf("read committed regen digest: %w", err)
	}
	var want regenDigest
	if err := json.Unmarshal(b, &want); err != nil {
		return fmt.Errorf("parse %s: %w", regenDigestPath, err)
	}
	if got != want {
		return fmt.Errorf("regen digest %+v, committed %+v", got, want)
	}
	return nil
}

// regenCheck has nothing left to do: every unit checked its digest.
func regenCheck(*env, []unit) error { return nil }
