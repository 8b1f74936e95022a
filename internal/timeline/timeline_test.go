package timeline

import (
	"runtime"
	"strings"
	"testing"

	"dlvp/internal/metrics"
)

// cumAt builds a cumulative snapshot after n base intervals with a fixed
// per-interval delta, so expected totals are easy to state in closed form.
func cumAt(n uint64) metrics.Counters {
	return metrics.Counters{
		metrics.Instructions: n * 100,
		metrics.Cycles:       n * 250,
		metrics.Loads:        n * 30,
		metrics.VPEligible:   n * 30,
		metrics.VPPredicted:  n * 20,
		metrics.VPCorrect:    n * 18,
		metrics.PAQAllocated: n * 20,
		metrics.PAQDropped:   n * 1,
		metrics.APTLookups:   n * 30,
		metrics.APTHits:      n * 25,
		metrics.L1DAccesses:  n * 40,
		metrics.L1DMisses:    n * 4,
	}
}

func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(100, 0, "wl", "dlvp")
	for i := uint64(1); i <= 5; i++ {
		r.Sample(cumAt(i), int(i))
	}
	tl := r.Finish(cumAt(5), 0)
	if len(tl.Samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(tl.Samples))
	}
	for i, s := range tl.Samples {
		if s.Delta[metrics.Instructions] != 100 {
			t.Errorf("sample %d delta instrs = %d, want 100", i, s.Delta[metrics.Instructions])
		}
		if s.Intervals != 1 || s.Index != i {
			t.Errorf("sample %d: intervals=%d index=%d", i, s.Intervals, s.Index)
		}
		if s.StartInstr != uint64(i)*100 || s.EndInstr != uint64(i+1)*100 {
			t.Errorf("sample %d range = [%d,%d)", i, s.StartInstr, s.EndInstr)
		}
	}
	if got := tl.Totals(); got != cumAt(5) {
		t.Errorf("totals = %+v, want %+v", got, cumAt(5))
	}
	// Finish is idempotent.
	if again := r.Finish(cumAt(9), 0); again != tl {
		t.Error("second Finish returned a different timeline")
	}
}

// Downsampling must preserve delta sums exactly — the property that lets
// interval totals reconcile with the run's final RunStats.
// recorderSink keeps the recorders TestShortRecordingAllocatesLittle builds
// on the heap, as they are when a core records into them.
var recorderSink *Recorder

// TestShortRecordingAllocatesLittle: a recorder holds only the samples it
// took. Three samples cost under 4 KiB, where reserving DefaultCapacity
// samples up front cost 229 KB per recorder.
func TestShortRecordingAllocatesLittle(t *testing.T) {
	const recorders = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < recorders; i++ {
		recorderSink = NewRecorder(100, 0, "wl", "dlvp")
		for n := uint64(1); n <= 3; n++ {
			recorderSink.Sample(cumAt(n), 0)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / recorders; per >= 4<<10 {
		t.Fatalf("a recorder that took 3 samples allocated %d B, want < 4096", per)
	}
}

func TestDownsamplingPreservesSums(t *testing.T) {
	const capacity = 8
	r := NewRecorder(100, capacity, "wl", "dlvp")
	const n = 100 // forces several merge generations
	for i := uint64(1); i <= n; i++ {
		r.Sample(cumAt(i), int(i%7))
	}
	tl := r.Finish(cumAt(n), 0)
	if len(tl.Samples) >= capacity {
		t.Fatalf("samples = %d, want < capacity %d", len(tl.Samples), capacity)
	}
	if tl.Merges == 0 {
		t.Fatal("expected at least one downsampling pass")
	}
	if got := tl.Totals(); got != cumAt(n) {
		t.Errorf("totals after downsampling = %+v, want %+v", got, cumAt(n))
	}
	// Sample ranges must tile [0, n*100) without gaps.
	var next uint64
	intervals := 0
	for i, s := range tl.Samples {
		if s.StartInstr != next {
			t.Errorf("sample %d starts at %d, want %d", i, s.StartInstr, next)
		}
		next = s.EndInstr
		intervals += s.Intervals
	}
	if next != n*100 || intervals != n {
		t.Errorf("tiled to %d instrs / %d intervals, want %d / %d", next, intervals, n*100, n)
	}
}

func TestDownsamplingTracksPeaks(t *testing.T) {
	r := NewRecorder(100, 4, "wl", "dlvp")
	peaks := []int{1, 9, 2, 3, 5, 4}
	for i, p := range peaks {
		r.Sample(cumAt(uint64(i+1)), p)
	}
	tl := r.Finish(cumAt(uint64(len(peaks))), 0)
	maxPeak := 0
	for _, s := range tl.Samples {
		if s.PAQPeak > maxPeak {
			maxPeak = s.PAQPeak
		}
	}
	if maxPeak != 9 {
		t.Errorf("max merged PAQ peak = %d, want 9", maxPeak)
	}
}

func TestFinishRecordsTail(t *testing.T) {
	r := NewRecorder(100, 0, "wl", "dlvp")
	r.Sample(cumAt(1), 0)
	tail := cumAt(1)
	tail[metrics.Instructions] += 42
	tail[metrics.Cycles] += 77
	tl := r.Finish(tail, 3)
	if len(tl.Samples) != 2 {
		t.Fatalf("samples = %d, want 2 (boundary + tail)", len(tl.Samples))
	}
	last := tl.Samples[1]
	if last.Delta[metrics.Instructions] != 42 || last.PAQPeak != 3 {
		t.Errorf("tail sample = %+v", last)
	}
	if got := tl.Totals(); got != tail {
		t.Errorf("totals = %+v, want %+v", got, tail)
	}
}

func TestSampleRateGuards(t *testing.T) {
	var s Sample // all-zero deltas
	for name, v := range map[string]float64{
		"IPC":             s.IPC(),
		"Coverage":        s.Coverage(),
		"Accuracy":        s.Accuracy(),
		"APTHitRate":      s.APTHitRate(),
		"APTConflictRate": s.APTConflictRate(),
		"APTAliasRate":    s.APTAliasRate(),
		"ProbeHitRate":    s.ProbeHitRate(),
		"PAQDropRate":     s.PAQDropRate(),
		"L1DMissRate":     s.L1DMissRate(),
		"L2MissRate":      s.L2MissRate(),
		"L3MissRate":      s.L3MissRate(),
		"TLBMissRate":     s.TLBMissRate(),
	} {
		if v != 0 {
			t.Errorf("%s on empty sample = %v, want 0", name, v)
		}
	}
}

func TestSnapshotGeneration(t *testing.T) {
	r := NewRecorder(100, 4, "wl", "dlvp")
	r.Sample(cumAt(1), 0)
	r.Sample(cumAt(2), 0)
	s1, gen1 := r.Snapshot()
	if len(s1) != 2 || gen1 != 0 {
		t.Fatalf("snapshot = %d samples gen %d", len(s1), gen1)
	}
	r.Sample(cumAt(3), 0)
	r.Sample(cumAt(4), 0) // hits capacity: merge
	s2, gen2 := r.Snapshot()
	if gen2 != 1 {
		t.Errorf("generation = %d, want 1 after downsampling", gen2)
	}
	if len(s2) != 2 {
		t.Errorf("post-merge samples = %d, want 2", len(s2))
	}
}

func TestPartial(t *testing.T) {
	r := NewRecorder(100, 0, "wl", "dlvp")
	r.Sample(cumAt(1), 0)
	p := r.Partial()
	if !p.Partial || len(p.Samples) != 1 {
		t.Fatalf("partial = %+v", p)
	}
	if p.Workload != "wl" || p.Scheme != "dlvp" {
		t.Errorf("partial labels = %q/%q, want the recorder's wl/dlvp", p.Workload, p.Scheme)
	}
	tl := r.Finish(cumAt(2), 0)
	if got := r.Partial(); got != tl {
		t.Error("Partial after Finish must return the final timeline")
	}
	if tl.Partial {
		t.Error("finished timeline marked partial")
	}
}

func TestDiffAndRegression(t *testing.T) {
	mk := func(accuracies []uint64) *Timeline {
		r := NewRecorder(100, 0, "wl", "dlvp")
		var cum metrics.Counters
		for _, correct := range accuracies {
			cum[metrics.Instructions] += 100
			cum[metrics.Cycles] += 200
			cum[metrics.VPEligible] += 100
			cum[metrics.VPPredicted] += 100
			cum[metrics.VPCorrect] += correct
			r.Sample(cum, 0)
		}
		return r.Finish(cum, 0)
	}
	a := mk([]uint64{90, 90, 90, 90})
	b := mk([]uint64{90, 60, 75, 90})
	rows := Diff(a, b)
	if len(rows) != 4 {
		t.Fatalf("diff rows = %d, want 4", len(rows))
	}
	worst, found := LargestAccuracyRegression(a, b)
	if !found {
		t.Fatal("regression not found")
	}
	if worst.Index != 1 {
		t.Errorf("worst interval = %d, want 1", worst.Index)
	}
	if worst.AccuracyDelta != -30 {
		t.Errorf("worst delta = %v, want -30", worst.AccuracyDelta)
	}
	// No regression when B >= A everywhere.
	if _, found := LargestAccuracyRegression(b, a); found {
		t.Error("improvement misreported as regression")
	}
	// Unequal lengths align over the shorter run.
	if rows := Diff(a, mk([]uint64{90, 90})); len(rows) != 2 {
		t.Errorf("unequal diff rows = %d, want 2", len(rows))
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRecorder(100, 0, "gcc", "dlvp")
	r.Sample(cumAt(1), 5)
	tl := r.Finish(cumAt(2), 0)
	var sb strings.Builder
	WritePrometheus(&sb, tl)
	out := sb.String()
	for _, want := range []string{
		"# HELP dlvp_timeline_ipc",
		"# TYPE dlvp_timeline_ipc gauge",
		`dlvp_timeline_ipc{workload="gcc",scheme="dlvp",interval="0",start_instr="0"} 0.4`,
		`dlvp_timeline_paq_peak{workload="gcc",scheme="dlvp",interval="0",start_instr="0"} 5`,
		`interval="1",start_instr="100"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

// TestWritePrometheusEscapesLabelsAsObs: label values are escaped as the
// obs exposition escapes them. The text format escapes only backslash,
// double quote and newline, so a tab is written raw; Go's %q wrote it as
// \t, which the format does not define.
func TestWritePrometheusEscapesLabelsAsObs(t *testing.T) {
	r := NewRecorder(100, 0, "a\tb", `c"d\e`+"\nf")
	tl := r.Finish(cumAt(1), 0)
	var sb strings.Builder
	WritePrometheus(&sb, tl)
	want := "dlvp_timeline_instructions{workload=\"a\tb\",scheme=\"c\\\"d\\\\e\\nf\",interval=\"0\",start_instr=\"0\"} 100\n"
	if !strings.Contains(sb.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, sb.String())
	}
}
