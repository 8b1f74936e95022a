package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"dlvp/internal/branch"
	"dlvp/internal/checkpoint"
	"dlvp/internal/config"
	"dlvp/internal/emu"
	"dlvp/internal/mem"
	"dlvp/internal/predictor/cap"
	"dlvp/internal/predictor/pap"
	"dlvp/internal/predictor/vtage"
	"dlvp/internal/program"
	"dlvp/internal/trace"
	"dlvp/internal/tracecache"
	"dlvp/internal/uarch"
	"dlvp/internal/workloads"
)

const (
	// layerInstrs is each sample kernel's stream length in the suite.
	layerInstrs = 50_000
	// layerReps is how often each timed pass repeats; the median counts.
	layerReps = 3
	// checkpointOffset is where the checkpoint benchmark builds state.
	checkpointOffset = 1_000_000
)

// layerSchemes are the core configurations the suite times, by the names
// of their metrics.
var layerSchemes = []struct {
	name string
	cfg  func() config.Core
}{
	{"base", config.Baseline}, {"cap", config.CAPDLVP}, {"vtage", config.VTAGE}, {"dlvp", config.DLVP},
}

// kernel is one sample kernel with its recorded stream.
type kernel struct {
	w    workloads.Workload
	prog *program.Program
	recs []trace.Rec
}

// layerSuite drives each layer directly through its public constructors,
// fed by the streams recorded from the 8-kernel sample, and adds the
// layer metrics. It runs once per traced run, after the workload units.
func layerSuite(e *env, m *metricSet) error {
	_, endSuite := e.spans.start("layers", "layer suite", 0)
	defer endSuite()
	var ks []kernel
	for _, name := range sampleKernels {
		w, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("sample kernel %q is not registered", name)
		}
		ks = append(ks, kernel{w: w, prog: w.Build()})
	}
	total := float64(layerInstrs * len(ks))

	// Functional emulation, trace capture and replay: live emulation of
	// every kernel, then recording it into a fresh trace cache, then
	// reading it back.
	var emuT, capT, repT []float64
	for rep := 0; rep < layerReps; rep++ {
		emuT = append(emuT, seconds(func() {
			for _, k := range ks {
				drain(k.w.Reader(layerInstrs))
			}
		}))
		tc := tracecache.New(1 << 30)
		for _, want := range []tracecache.Outcome{tracecache.OutcomeCapture, tracecache.OutcomeReplay} {
			var err error
			t := seconds(func() {
				for _, k := range ks {
					r, release, got := tc.Reader(k.w.Name, layerInstrs, func() trace.Reader { return k.w.Reader(layerInstrs) })
					drain(r)
					release()
					if got != want {
						err = fmt.Errorf("trace cache served %s as %s, want %s", k.w.Name, got, want)
					}
				}
			})
			if err != nil {
				return err
			}
			if want == tracecache.OutcomeCapture {
				capT = append(capT, t)
			} else {
				repT = append(repT, t)
			}
		}
	}
	m.add("emu.minstrs_per_s", "Minstr/s", total/median(emuT)/1e6)
	m.add("trace.rec_bytes", "B", float64(unsafe.Sizeof(trace.Rec{})))
	m.add("tracecache.capture_minstrs_per_s", "Minstr/s", total/median(capT)/1e6)
	m.add("tracecache.replay_minstrs_per_s", "Minstr/s", total/median(repT)/1e6)
	for i := range ks {
		ks[i].recs = trace.Collect(ks[i].w.Reader(layerInstrs), 0)
	}

	// The detailed core per scheme, replay-fed from memory.
	arena := uarch.NewArena()
	runAll := func(cfg config.Core, record bool) (instrs, cycles uint64) {
		for _, k := range ks {
			c := uarch.NewAtArena(cfg, k.prog, &trace.SliceReader{Recs: k.recs}, nil, arena)
			if record {
				c.EnableTimeline(100_000, 0)
				c.EnableSiteProfile(0)
			}
			st := c.Run(0)
			instrs += st.Instructions
			cycles += st.Cycles
		}
		return instrs, cycles
	}
	for _, s := range layerSchemes {
		var ts []float64
		var instrs, cycles uint64
		for rep := 0; rep < layerReps; rep++ {
			ts = append(ts, seconds(func() { instrs, cycles = runAll(s.cfg(), false) }))
		}
		m.add("uarch.minstrs_per_s."+s.name, "Minstr/s", float64(instrs)/median(ts)/1e6)
		if s.name == "base" || s.name == "dlvp" {
			m.add("uarch.ns_per_cycle."+s.name, "ns", median(ts)*1e9/float64(cycles))
		}
	}
	allocs, bytes := allocsPerRun(func() { runAll(config.DLVP(), false) })
	m.add("uarch.allocs_per_run", "count", allocs/float64(len(ks)))
	m.add("uarch.bytes_per_run", "B", bytes/float64(len(ks)))
	// Recording overhead: interleaved bare and recording passes, the
	// median of the per-pair ratios.
	var ratios []float64
	for rep := 0; rep < 2*layerReps; rep++ {
		bare := seconds(func() { runAll(config.DLVP(), false) })
		rec := seconds(func() { runAll(config.DLVP(), true) })
		ratios = append(ratios, rec/bare)
	}
	m.add("uarch.recording_overhead_pct", "%", 100*(median(ratios)-1))

	predictorSuite(ks, m)
	return checkpointSuite(ks, m)
}

// predictorSuite feeds the recorded load, branch and memory streams to
// fresh predictor, branch and cache models, one per kernel.
func predictorSuite(ks []kernel, m *metricSet) {
	var loads, branches, accesses float64
	for _, k := range ks {
		for i := range k.recs {
			r := &k.recs[i]
			if r.Op.IsLoad() {
				loads++
			}
			if r.Op.IsCondBranch() {
				branches++
			}
			if r.Op.IsMem() {
				accesses++
			}
		}
	}
	// perOp times one pass of every kernel's stream through a model that
	// mk constructs beforehand, untimed; it returns the median ns per op.
	perOp := func(ops float64, mk func(k *kernel) func()) float64 {
		var ts []float64
		for rep := 0; rep < layerReps; rep++ {
			passes := make([]func(), len(ks))
			for i := range ks {
				passes[i] = mk(&ks[i])
			}
			ts = append(ts, seconds(func() {
				for _, pass := range passes {
					pass()
				}
			}))
		}
		return median(ts) * 1e9 / ops
	}
	m.add("pap.ns_per_load", "ns", perOp(loads, func(k *kernel) func() {
		p := pap.New(pap.DefaultConfig())
		return func() {
			for i := range k.recs {
				if r := &k.recs[i]; r.Op.IsLoad() {
					sizeLog2 := uint8(0)
					for b := int(r.Bytes); b > 1; b >>= 1 {
						sizeLog2++
					}
					p.Train(p.Lookup(r.PC), r.Addr, sizeLog2, 0)
					p.PushLoad(r.PC)
				}
			}
		}
	}))
	m.add("cap.ns_per_load", "ns", perOp(loads, func(k *kernel) func() {
		p := cap.New(cap.DefaultConfig())
		return func() {
			for i := range k.recs {
				if r := &k.recs[i]; r.Op.IsLoad() {
					p.Train(p.Lookup(r.PC), r.PC, r.Addr)
				}
			}
		}
	}))
	m.add("vtage.ns_per_load", "ns", perOp(loads, func(k *kernel) func() {
		p := vtage.New(vtage.DefaultConfig())
		return func() {
			for i := range k.recs {
				r := &k.recs[i]
				switch {
				case r.Op.IsLoad():
					p.Train(p.Predict(r.PC, 0), r.Op, r.Value())
				case r.Op.IsCondBranch():
					p.PushBranch(r.Taken)
				}
			}
		}
	}))
	m.add("branch.tage_ns_per_branch", "ns", perOp(branches, func(k *kernel) func() {
		t := branch.NewTAGE(branch.DefaultTAGEConfig())
		return func() {
			var hist uint64
			for i := range k.recs {
				if r := &k.recs[i]; r.Op.IsCondBranch() {
					t.Predict(r.PC, hist)
					t.Update(r.PC, hist, r.Taken)
					hist <<= 1
					if r.Taken {
						hist |= 1
					}
				}
			}
		}
	}))
	m.add("mem.ns_per_access", "ns", perOp(accesses, func(k *kernel) func() {
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		return func() {
			var now uint64
			for i := range k.recs {
				r := &k.recs[i]
				switch {
				case r.Op.IsLoad():
					now++
					h.Load(now, r.PC, r.Addr)
				case r.Op.IsStore():
					now++
					h.Store(now, r.Addr)
				}
			}
		}
	}))
}

// checkpointSuite builds each sample kernel's state at checkpointOffset in
// a fresh store (cold: emulation from the entry), then restores it.
func checkpointSuite(ks []kernel, m *metricSet) error {
	var build, restore []float64
	for rep := 0; rep < layerReps; rep++ {
		s := checkpoint.NewStore(0)
		var err error
		build = append(build, seconds(func() {
			for _, k := range ks {
				if _, _, e := s.StateAt(k.w.Name, k.prog, checkpointOffset); e != nil {
					err = e
				}
			}
		}))
		restore = append(restore, seconds(func() {
			for _, k := range ks {
				snap, got, e := s.StateAt(k.w.Name, k.prog, checkpointOffset)
				if e == nil && got != checkpoint.OutcomeHit {
					e = fmt.Errorf("checkpoint of %s served as %s after a build", k.w.Name, got)
				}
				if e != nil {
					err = e
					continue
				}
				emu.NewFromSnapshot(k.prog, snap)
			}
		}))
		if err != nil {
			var halted *checkpoint.HaltedEarlyError
			if errors.As(err, &halted) {
				return fmt.Errorf("checkpoint suite: a sample kernel halts before %d instructions: %w", checkpointOffset, err)
			}
			return fmt.Errorf("checkpoint suite: %w", err)
		}
	}
	m.add("checkpoint.build_minstrs_per_s", "Minstr/s", float64(checkpointOffset*len(ks))/median(build)/1e6)
	m.add("checkpoint.restore_ms", "ms", median(restore)*1e3/float64(len(ks)))
	return nil
}

func drain(r trace.Reader) {
	var rec trace.Rec
	for r.Next(&rec) {
	}
}

func seconds(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

// allocsPerRun reports the heap allocations and bytes fn makes, after a
// warm-up call (the arena then holds its bulk state).
func allocsPerRun(fn func()) (allocs, bytes float64) {
	fn()
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}
