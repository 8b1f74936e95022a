package runner

import (
	"context"
	"math"
	"strings"
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
)

func TestSamplingSpecNormalize(t *testing.T) {
	cases := []struct {
		name   string
		spec   SamplingSpec
		instrs uint64
		errHas string // substring of the expected error ("" = valid)
	}{
		{"defaults", SamplingSpec{Intervals: 8}, 80_000, ""},
		{"explicit", SamplingSpec{Intervals: 4, WarmupInstrs: 100, MeasuredInstrs: 200}, 40_000, ""},
		{"zero instrs", SamplingSpec{Intervals: 4}, 0, "bounded instruction budget"},
		{"zero intervals", SamplingSpec{}, 10_000, "intervals must be >= 1"},
		{"negative intervals", SamplingSpec{Intervals: -2}, 10_000, "intervals must be >= 1"},
		{"too many intervals", SamplingSpec{Intervals: MaxSamplingIntervals + 1}, 1 << 30, "intervals must be <="},
		{"more intervals than instrs", SamplingSpec{Intervals: 100}, 50, "more sampling intervals"},
		{"budget over stride", SamplingSpec{Intervals: 4, MeasuredInstrs: 20_000}, 40_000, "exceeds the interval stride"},
		{"warmup over budget", SamplingSpec{Intervals: 2, WarmupInstrs: 1 << 40}, 40_000, "exceeds the instruction budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.spec.Normalize(tc.instrs)
			if tc.errHas != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("err = %v, want substring %q", err, tc.errHas)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.MeasuredInstrs == 0 || got.MeasuredInstrs > got.Stride(tc.instrs) {
				t.Errorf("normalized measured = %d, want in (0, stride %d]", got.MeasuredInstrs, got.Stride(tc.instrs))
			}
		})
	}

	// The documented defaults: stride/8 measured, stride/16 warm-up.
	sp, err := SamplingSpec{Intervals: 8}.Normalize(80_000)
	if err != nil {
		t.Fatal(err)
	}
	if sp.MeasuredInstrs != 10_000/8 || sp.WarmupInstrs != 10_000/16 {
		t.Errorf("defaults = measured %d / warmup %d, want %d / %d", sp.MeasuredInstrs, sp.WarmupInstrs, 10_000/8, 10_000/16)
	}
}

func TestPlanIntervals(t *testing.T) {
	sp, err := SamplingSpec{Intervals: 4, WarmupInstrs: 300, MeasuredInstrs: 500}.Normalize(40_000)
	if err != nil {
		t.Fatal(err)
	}
	plan := planIntervals(sp, 40_000)
	if len(plan) != 4 {
		t.Fatalf("%d intervals planned, want 4", len(plan))
	}
	// Windows are centred in their strides: anchor = i·stride + (stride-M)/2.
	const center = (10_000 - 500) / 2
	for i, iv := range plan {
		wantAnchor := uint64(i)*10_000 + center
		if iv.anchor != wantAnchor {
			t.Errorf("interval %d anchor = %d, want %d", i, iv.anchor, wantAnchor)
		}
		// The window must stay inside its own stride.
		if iv.anchor < uint64(i)*10_000 || iv.anchor+500 > uint64(i+1)*10_000 {
			t.Errorf("interval %d window [%d, %d) escapes stride [%d, %d)",
				i, iv.anchor, iv.anchor+500, uint64(i)*10_000, uint64(i+1)*10_000)
		}
		if iv.restore+iv.warmup != iv.anchor {
			t.Errorf("interval %d: restore %d + warmup %d != anchor %d", i, iv.restore, iv.warmup, iv.anchor)
		}
		if iv.detailed != iv.warmup+500 {
			t.Errorf("interval %d detailed = %d, want warmup+measured", i, iv.detailed)
		}
	}
	// Centring gives even the first interval its full warm-up.
	if plan[0].warmup != 300 || plan[0].restore != center-300 {
		t.Errorf("interval 0 = %+v, want warmup 300 / restore %d", plan[0], center-300)
	}
	// Warm-up longer than the first anchor still floors restore at 0.
	wide, err := SamplingSpec{Intervals: 4, WarmupInstrs: 6_000, MeasuredInstrs: 500}.Normalize(40_000)
	if err != nil {
		t.Fatal(err)
	}
	if p := planIntervals(wide, 40_000); p[0].restore != 0 || p[0].warmup != p[0].anchor {
		t.Errorf("clipped interval 0 = %+v, want restore 0 / warmup == anchor", p[0])
	}
}

func TestSampledJobKeyDiffersFromFull(t *testing.T) {
	full := testJob("perlbmk", testInstrs)
	sampled := full
	sampled.Sampling = &SamplingSpec{Intervals: 4}
	fk, err := full.Key()
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sampled.Key()
	if err != nil {
		t.Fatal(err)
	}
	if fk == sk {
		t.Error("a sampled job content-addresses like the full job; caches would alias estimates and measurements")
	}
	other := full
	other.Sampling = &SamplingSpec{Intervals: 8}
	if ok, _ := other.Key(); ok == sk {
		t.Error("interval count not part of the content address")
	}
}

func TestSampledRunProducesEstimate(t *testing.T) {
	r := New(Options{Workers: 2})
	job := Job{Workload: "perlbmk", Config: config.DLVP(), Instrs: 40_000,
		Sampling: &SamplingSpec{Intervals: 4}}
	res, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first sampled run reported cached")
	}
	info := res.Sampled
	if info == nil {
		t.Fatal("sampled result carries no SampledInfo")
	}
	spec, _ := job.Sampling.Normalize(job.Instrs)
	if info.Intervals != 4 || info.SpanInstrs != 40_000 || info.StrideInstrs != 10_000 {
		t.Errorf("info = %+v, want 4 intervals over 40000", info)
	}
	wantMeasured := uint64(4) * spec.MeasuredInstrs
	if info.MeasuredTotal != wantMeasured {
		t.Errorf("measured total = %d, want %d", info.MeasuredTotal, wantMeasured)
	}
	if res.Stats.Instructions != wantMeasured {
		t.Errorf("stats instructions = %d, want the measured total %d", res.Stats.Instructions, wantMeasured)
	}
	if info.DetailedInstrs >= info.SpanInstrs {
		t.Errorf("detailed %d instrs >= span %d: sampling did not reduce detailed work", info.DetailedInstrs, info.SpanInstrs)
	}
	if res.Stats.Cycles == 0 || res.Stats.IPC() <= 0 {
		t.Errorf("implausible sampled stats: %d cycles, IPC %f", res.Stats.Cycles, res.Stats.IPC())
	}
	if info.EstimatedCycles <= res.Stats.Cycles {
		t.Errorf("estimated full-span cycles %d <= measured %d", info.EstimatedCycles, res.Stats.Cycles)
	}
	if res.Timeline == nil {
		t.Fatal("sampled run recorded no timeline")
	}
	if got := res.Timeline.Totals()[metrics.Instructions]; got != wantMeasured {
		t.Errorf("timeline totals = %d, want %d", got, wantMeasured)
	}
	if hits := r.Checkpoints().Stats(); hits.Entries == 0 {
		t.Error("sampled run left no checkpoints behind")
	}
	st := r.Stats()
	if st.SampledRuns != 1 || st.SampledIntervals != 4 {
		t.Errorf("engine stats sampled = %d runs / %d intervals, want 1 / 4", st.SampledRuns, st.SampledIntervals)
	}
}

func TestSampledRunCached(t *testing.T) {
	r := New(Options{Workers: 2})
	job := Job{Workload: "mcf", Config: config.Baseline(), Instrs: 20_000,
		Sampling: &SamplingSpec{Intervals: 2}}
	first, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first run cached")
	}
	second, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("identical sampled job not served from cache")
	}
	if second.Sampled == nil || *second.Sampled != *first.Sampled {
		t.Error("cached result lost or mutated its SampledInfo")
	}
	if second.Stats != first.Stats {
		t.Error("cached sampled stats differ")
	}
}

func TestSampledRunDeterministic(t *testing.T) {
	job := Job{Workload: "splay", Config: config.DLVP(), Instrs: 30_000,
		Sampling: &SamplingSpec{Intervals: 3}}
	run := func() Result {
		r := New(Options{Workers: 4}) // fresh engine: no caches in play
		res, _, err := r.RunResult(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats != b.Stats {
		t.Errorf("sampled stats differ across identical runs:\n a: %+v\n b: %+v", a.Stats, b.Stats)
	}
}

func TestSampledInvalidSpecRejected(t *testing.T) {
	r := New(Options{Workers: 1})
	job := testJob("perlbmk", testInstrs)
	job.Sampling = &SamplingSpec{Intervals: -1}
	if _, _, err := r.Run(context.Background(), job); err == nil {
		t.Fatal("invalid sampling spec accepted")
	}
	if got := r.Stats().JobsFailed; got != 1 {
		t.Errorf("failed count = %d, want 1", got)
	}
}

// TestSampledReconcilesWithFull is the CI reconciliation gate: for several
// workloads the sampled estimate must land near the monolithic
// measurement on the metrics the paper's evaluation reads — IPC, value
// prediction coverage, and accuracy. Tolerances are loose enough for
// sampling error on miniature kernels and tight enough that a unit bug
// (seq rebasing, warm-up leakage, stale committed memory) blows through
// them.
//
// The warm-up is explicit because the DLVP predictor needs ~10k
// committed instructions to train: at this miniature CI budget the
// stride/16 default (~3k) under-trains it and coverage reads low. At
// the acceptance-scale budgets sampling targets (10M+ instrs) the
// default warm-up is far past training and this correction is moot.
func TestSampledReconcilesWithFull(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload reconciliation is CI-sized")
	}
	const (
		instrs       = 400_000
		warmup       = 6_000
		ipcTolPct    = 8.0 // |IPC delta| as % of full-run IPC
		covTolPts    = 8.0 // coverage delta, absolute percentage points
		accTolPts    = 2.0 // accuracy delta, absolute percentage points
		sampledBelow = 0.5 // detailed instrs must stay below this fraction of the span
	)
	r := New(Options{Workers: 4})
	for _, wl := range []string{"perlbmk", "mcf", "splay", "fft", "omnetpp"} {
		t.Run(wl, func(t *testing.T) {
			full, _, err := r.Run(context.Background(), Job{Workload: wl, Config: config.DLVP(), Instrs: instrs})
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := r.RunResult(context.Background(), Job{Workload: wl, Config: config.DLVP(), Instrs: instrs,
				Sampling: &SamplingSpec{Intervals: 8, WarmupInstrs: warmup}})
			if err != nil {
				t.Fatal(err)
			}
			sampled := res.Stats
			if frac := float64(res.Sampled.DetailedInstrs) / float64(res.Sampled.SpanInstrs); frac > sampledBelow {
				t.Errorf("detailed fraction %.2f > %.2f: not actually sampling", frac, sampledBelow)
			}
			if d := 100 * math.Abs(sampled.IPC()-full.IPC()) / full.IPC(); d > ipcTolPct {
				t.Errorf("IPC: sampled %.3f vs full %.3f (%.1f%% off, tol %.1f%%)", sampled.IPC(), full.IPC(), d, ipcTolPct)
			}
			if d := math.Abs(sampled.VP.Coverage() - full.VP.Coverage()); d > covTolPts {
				t.Errorf("coverage: sampled %.1f%% vs full %.1f%% (tol %.1f points)", sampled.VP.Coverage(), full.VP.Coverage(), covTolPts)
			}
			if d := math.Abs(sampled.VP.Accuracy() - full.VP.Accuracy()); d > accTolPts {
				t.Errorf("accuracy: sampled %.2f%% vs full %.2f%% (tol %.1f points)", sampled.VP.Accuracy(), full.VP.Accuracy(), accTolPts)
			}
		})
	}
}

// A sampled run after a full run of the same workload, configuration and
// budget is a distinct job: it is not served the full run's cached
// result, and it returns sampled stats.
func TestSampledRunAfterFullRun(t *testing.T) {
	r := New(Options{Workers: 2})
	const instrs = 40_000
	if _, _, err := r.Run(context.Background(), Job{Workload: "fft", Config: config.Baseline(), Instrs: instrs}); err != nil {
		t.Fatal(err)
	}
	res, _, err := r.RunResult(context.Background(), Job{Workload: "fft", Config: config.Baseline(), Instrs: instrs,
		Sampling: &SamplingSpec{Intervals: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == nil {
		t.Fatal("no sampled info")
	}
	var m metrics.RunStats
	if res.Stats == m {
		t.Error("empty sampled stats")
	}
}

// A sampled tournament job carries the provider split: the merge sums the
// whole counter vector, so every merged prediction is attributed to
// exactly one side, as in a full run.
func TestSampledTournamentAttribution(t *testing.T) {
	r := New(Options{Workers: 2})
	res, _, err := r.RunResult(context.Background(), Job{Workload: "perlbmk", Config: config.Tournament(), Instrs: 100_000,
		Sampling: &SamplingSpec{Intervals: 4, WarmupInstrs: 10_000}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.VP.Predicted == 0 {
		t.Fatal("sampled tournament made no predictions")
	}
	if s.TournamentDLVP+s.TournamentVTAGE != s.VP.Predicted {
		t.Errorf("sampled provider split %d DLVP + %d VTAGE != %d predicted",
			s.TournamentDLVP, s.TournamentVTAGE, s.VP.Predicted)
	}
}

// Sampled energy covers the measured regions, each priced by its interval
// core with the full-run code, so Figure 6c's normalised energy is
// defined under sampling.
func TestSampledEnergyRatio(t *testing.T) {
	r := New(Options{Workers: 2})
	energy := func(cfg config.Core) float64 {
		res, _, err := r.RunResult(context.Background(), Job{Workload: "perlbmk", Config: cfg, Instrs: 40_000,
			Sampling: &SamplingSpec{Intervals: 4}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.CoreEnergy
	}
	ratio := energy(config.DLVP()) / energy(config.Baseline())
	if math.IsNaN(ratio) || math.IsInf(ratio, 0) || ratio <= 0 {
		t.Errorf("sampled DLVP/baseline energy ratio = %v, want finite and positive", ratio)
	}
}
