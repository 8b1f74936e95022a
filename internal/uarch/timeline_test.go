package uarch

import (
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	tline "dlvp/internal/timeline"
	"dlvp/internal/workloads"
)

// runWithTimeline simulates a workload with flight-recorder sampling on and
// returns both products.
func runWithTimeline(t *testing.T, name string, cfg config.Core, instrs, interval uint64, capacity int) (*tline.Timeline, *Core) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	c := New(cfg, w.Build(), w.Reader(instrs))
	c.EnableTimeline(interval, capacity)
	if s := c.Run(instrs * 100); s.Instructions == 0 {
		t.Fatalf("%s: nothing committed", name)
	}
	tl := c.Timeline()
	if tl == nil {
		t.Fatal("Timeline() = nil after a run with EnableTimeline")
	}
	return tl, c
}

// The sum of interval deltas must reconcile EXACTLY with the run's
// counter vector — the invariant the pairwise-merge downsampling was
// chosen to preserve — counter by counter, and converting that vector
// must give the run's RunStats. Exercised with a capacity small enough to
// force several merge generations.
func TestTimelineReconcilesWithRunStats(t *testing.T) {
	const instrs = 60_000
	tl, c := runWithTimeline(t, "mcf", config.DLVP(), instrs, 1_000, 8)
	if tl.Merges == 0 {
		t.Fatalf("expected downsampling at capacity 8 over %d intervals", instrs/1_000)
	}
	meas, ok := c.MeasuredCounters() // no window: the whole run
	if !ok {
		t.Fatal("MeasuredCounters incomplete without a sample window")
	}
	tot := tl.Totals()
	for k := range tot {
		if tot[k] != meas[k] {
			t.Errorf("timeline total %s = %d, run counters say %d", metrics.Counter(k), tot[k], meas[k])
		}
	}
	s := c.Stats()
	want := meas.RunStats(s.Workload, s.Scheme)
	want.CoreEnergy = s.CoreEnergy
	if want != s {
		t.Errorf("RunStats converted from the counters differ from the run's:\n converted %+v\n run       %+v", want, s)
	}
	if tot[metrics.Instructions] != instrs {
		t.Errorf("timeline instructions = %d, want the full budget %d", tot[metrics.Instructions], instrs)
	}
}

// Interval boundaries must land exactly every interval instructions, with
// the final (possibly shorter) tail recorded by Finish.
func TestTimelineIntervalBoundaries(t *testing.T) {
	const instrs, interval = 10_500, 1_000
	tl, _ := runWithTimeline(t, "perlbmk", config.DLVP(), instrs, interval, 0)
	if len(tl.Samples) != 11 {
		t.Fatalf("samples = %d, want 11 (10 full + tail)", len(tl.Samples))
	}
	for i, s := range tl.Samples[:10] {
		if s.Delta[metrics.Instructions] != interval {
			t.Errorf("sample %d spans %d instrs, want %d", i, s.Delta[metrics.Instructions], interval)
		}
		if s.StartInstr != uint64(i)*interval {
			t.Errorf("sample %d starts at %d", i, s.StartInstr)
		}
	}
	if tail := tl.Samples[10]; tail.Delta[metrics.Instructions] != 500 {
		t.Errorf("tail spans %d instrs, want 500", tail.Delta[metrics.Instructions])
	}
	if tl.Workload != "perlbmk" || tl.Scheme == "" {
		t.Errorf("timeline labels = %q/%q", tl.Workload, tl.Scheme)
	}
}

// A DLVP run must populate the predictor-specific series: APT activity,
// FPC confidence transitions, probes, and a nonzero PAQ high-water mark.
func TestTimelineRecordsPredictorSeries(t *testing.T) {
	const instrs = 60_000
	tl, _ := runWithTimeline(t, "mcf", config.DLVP(), instrs, 2_000, 0)
	tot := tl.Totals()
	if tot[metrics.APTLookups] == 0 || tot[metrics.APTHits] == 0 {
		t.Errorf("APT series empty: lookups=%d hits=%d", tot[metrics.APTLookups], tot[metrics.APTHits])
	}
	if tot[metrics.FPCBumps] == 0 {
		t.Error("no FPC confidence bumps recorded")
	}
	if tot[metrics.Probes] == 0 {
		t.Error("no probes recorded")
	}
	peak := 0
	for _, s := range tl.Samples {
		if s.PAQPeak > peak {
			peak = s.PAQPeak
		}
	}
	if peak == 0 {
		t.Error("PAQ high-water mark never rose above zero")
	}
}

// Sampling off (the default) must leave Timeline nil and behave identically
// to a run before this subsystem existed.
func TestTimelineOffByDefault(t *testing.T) {
	w, _ := workloads.ByName("perlbmk")
	c := New(config.DLVP(), w.Build(), w.Reader(5_000))
	c.Run(0)
	if c.Timeline() != nil {
		t.Error("Timeline() non-nil without EnableTimeline")
	}
}

// Timeline recording must not perturb the simulation itself: cycle counts
// and prediction outcomes are identical with and without the recorder.
func TestTimelineDoesNotPerturbSimulation(t *testing.T) {
	const instrs = 30_000
	w, _ := workloads.ByName("mcf")
	plain := New(config.DLVP(), w.Build(), w.Reader(instrs))
	sPlain := plain.Run(0)
	rec := New(config.DLVP(), w.Build(), w.Reader(instrs))
	rec.EnableTimeline(1_000, 16)
	sRec := rec.Run(0)
	if sPlain.Cycles != sRec.Cycles || sPlain.VP.Predicted != sRec.VP.Predicted ||
		sPlain.VP.Correct != sRec.VP.Correct || sPlain.CoreEnergy != sRec.CoreEnergy {
		t.Errorf("recorder perturbed the run: %d/%d cycles, %d/%d predicted",
			sPlain.Cycles, sRec.Cycles, sPlain.VP.Predicted, sRec.VP.Predicted)
	}
}

// benchRun is the common body of the overhead benchmarks: one full DLVP
// simulation, optionally sampled. It runs three default intervals, so the
// sampled side pays for boundary samples, not only the recorder's set-up.
func benchRun(b *testing.B, sample bool) {
	const instrs = 3 * tline.DefaultIntervalInstrs
	w, ok := workloads.ByName("mcf")
	if !ok {
		b.Fatal("workload mcf not registered")
	}
	p := w.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(config.DLVP(), p, w.Reader(instrs))
		var rec *tline.Recorder
		if sample {
			rec = c.EnableTimeline(tline.DefaultIntervalInstrs, 0)
		}
		c.Run(0)
		if !sample {
			continue
		}
		if samples, _ := rec.Snapshot(); len(samples) < 3 {
			b.Fatalf("the recorder took %d samples over %d instructions, want at least 3", len(samples), instrs)
		}
	}
}

// BenchmarkTimelineOverhead measures a full simulation with sampling on at
// the default interval; compare against BenchmarkTimelineBaseline (CI's
// bench-sanity step runs both), alternating the two:
//
//	go test -run - -bench 'BenchmarkTimeline(Overhead|Baseline)' ./internal/uarch/
func BenchmarkTimelineOverhead(b *testing.B) { benchRun(b, true) }

// BenchmarkTimelineBaseline is the sampling-off control.
func BenchmarkTimelineBaseline(b *testing.B) { benchRun(b, false) }
