// Benchmark harness: one benchmark per paper table/figure (regenerating the
// artifact at reduced instruction budgets — run cmd/experiments for the
// full-size reproduction) plus component microbenchmarks for the simulator
// and the predictors.
package dlvp

import (
	"context"
	"fmt"
	"testing"

	"dlvp/internal/experiments"
	"dlvp/internal/obs"
	"dlvp/internal/runner"
	"dlvp/internal/trace"
	"dlvp/internal/uarch"
)

// benchParams shrinks the per-workload budget so a full -bench=. sweep
// stays laptop-sized; the printed tables use the same drivers as the CLI.
// The runner's result cache is disabled so every iteration measures real
// simulation work rather than a cache lookup.
func benchParams() experiments.Params {
	return experiments.Params{
		Instrs:   20_000,
		Parallel: true,
		Runner:   runner.New(runner.Options{CacheEntries: -1}),
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	p := benchParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

func BenchmarkFig1_LoadStoreConflicts(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFig2_Repeatability(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkTab1_APTEntry(b *testing.B)            { benchExperiment(b, "tab1") }
func BenchmarkTab2_VPEDesigns(b *testing.B)          { benchExperiment(b, "tab2") }
func BenchmarkTab3_Applications(b *testing.B)        { benchExperiment(b, "tab3") }
func BenchmarkTab4_CoreConfig(b *testing.B)          { benchExperiment(b, "tab4") }
func BenchmarkFig4_AddressPrediction(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5_Prefetch(b *testing.B)            { benchExperiment(b, "fig5") }
func BenchmarkFig6_SchemeComparison(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7_VTAGEFlavours(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8_Tournament(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9_SelectedBenchmarks(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10_RecoveryMechanisms(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkAblations_DesignChoices(b *testing.B)  { benchExperiment(b, "ablations") }

// BenchmarkInstrumentedRun quantifies the telemetry overhead the obs layer
// adds to the serving hot path: the same standard 300k-instruction run
// through the runner engine, once bare and once with histograms + span
// recording live (observer wired and the context carrying an active
// trace). The acceptance bar is instrumented within ~2% of baseline —
// simulation work dwarfs a handful of atomic adds and one span append.
func BenchmarkInstrumentedRun(b *testing.B) {
	const instrs = 300_000
	job := runner.Job{Workload: "perlbmk", Config: Baseline(), Instrs: instrs}

	b.Run("baseline", func(b *testing.B) {
		r := runner.New(runner.Options{CacheEntries: -1})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := r.Run(context.Background(), job); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		ob := obs.NewObserver(nil)
		r := runner.New(runner.Options{CacheEntries: -1, Obs: ob})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := fmt.Sprintf("bench-%d", i)
			ob.Tracer.Begin(id)
			ctx := obs.ContextWithTrace(context.Background(), ob.Tracer, id)
			if _, _, err := r.Run(ctx, job); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoreThroughput is the CI-gated measure of the cycle-level
// core's own speed: simulated (committed) instructions per wall-clock
// second on the commit path, with functional emulation taken out of the
// loop by replaying a pre-captured in-memory trace. BENCH_9.json records
// the committed trajectory; TestCoreThroughputGate (run with
// DLVP_BENCH_GATE=1) fails CI when the measured rate regresses more than
// 10% against it.
func BenchmarkCoreThroughput(b *testing.B) {
	const instrs = 100_000
	for _, tc := range []struct {
		name string
		cfg  CoreConfig
	}{
		{"baseline", Baseline()},
		{"dlvp", DLVP()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w, ok := WorkloadByName("perlbmk")
			if !ok {
				b.Fatal("perlbmk not registered")
			}
			prog := w.Build()
			stream := trace.Capture(w.Reader(instrs), 0)
			arena := uarch.NewArena() // reused across runs, like the runner does
			b.ReportAllocs()
			b.ResetTimer()
			var committed uint64
			for i := 0; i < b.N; i++ {
				core := uarch.NewAtArena(tc.cfg, prog, stream.Replay(), nil, arena)
				stats := core.Run(0)
				if stats.Instructions == 0 {
					b.Fatal("nothing committed")
				}
				committed += stats.Instructions
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(committed)/secs, "instrs/sec")
			}
		})
	}
}

// --- component microbenchmarks ------------------------------------------------

// BenchmarkEmulator measures raw functional-emulation throughput
// (instructions per op).
func BenchmarkEmulator(b *testing.B) {
	w, _ := WorkloadByName("perlbmk")
	prog := w.Build()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cpu := NewCPU(prog)
		cpu.MaxInstrs = 10_000
		var rec TraceRec
		for cpu.Next(&rec) {
		}
	}
}

// BenchmarkTimingBaseline measures cycle-level simulation throughput on the
// baseline core.
func BenchmarkTimingBaseline(b *testing.B) {
	w, _ := WorkloadByName("perlbmk")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(Baseline(), w, 10_000)
	}
}

// BenchmarkTimingDLVP measures cycle-level simulation throughput with the
// full DLVP machinery engaged.
func BenchmarkTimingDLVP(b *testing.B) {
	w, _ := WorkloadByName("perlbmk")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(DLVP(), w, 10_000)
	}
}

// BenchmarkPAPLookup measures the predictor's lookup+train cost.
func BenchmarkPAPLookup(b *testing.B) {
	p := NewPAP(DefaultPAPConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pc := 0x400000 + uint64(i%64)*4
		lk := p.Lookup(pc)
		p.Train(lk, 0x10000+uint64(i%8)*64, 3, 0)
		p.PushLoad(pc)
	}
}

// BenchmarkVTAGEPredict measures VTAGE's probe+train cost.
func BenchmarkVTAGEPredict(b *testing.B) {
	p := NewVTAGE(DefaultVTAGEConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pc := 0x400000 + uint64(i%64)*4
		lk := p.Predict(pc, 0)
		p.Train(lk, OpADD, uint64(i%8))
		p.PushBranch(i%3 == 0)
	}
}

// BenchmarkConflictProfiler measures the Figure 1 profiler throughput.
func BenchmarkConflictProfiler(b *testing.B) {
	w, _ := WorkloadByName("mcf")
	recs := trace.Collect(w.Reader(20_000), 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prof := trace.NewConflictProfiler(288)
		for j := range recs {
			prof.Observe(&recs[j])
		}
	}
}
