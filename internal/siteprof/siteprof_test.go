package siteprof

import (
	"encoding/json"
	"strings"
	"testing"
)

// apply must derive Predicted/Correct from the cause so the per-site
// partition is exact by construction: one Eligible per event, Predicted
// iff the cause is a prediction outcome, Correct iff CauseCorrect.
func TestCountsApplyPartition(t *testing.T) {
	var c Counts
	for cause := Cause(0); int(cause) < NumCauses; cause++ {
		c.apply(Event{Cause: cause})
	}
	if c.Eligible != uint64(NumCauses) {
		t.Errorf("Eligible = %d, want %d", c.Eligible, NumCauses)
	}
	if c.Predicted != 5 { // correct + 4 mispredict causes
		t.Errorf("Predicted = %d, want 5", c.Predicted)
	}
	if c.Correct != 1 {
		t.Errorf("Correct = %d, want 1", c.Correct)
	}
	var causeSum uint64
	for _, n := range c.Causes {
		causeSum += n
	}
	if causeSum != c.Eligible {
		t.Errorf("cause sum %d != eligible %d", causeSum, c.Eligible)
	}
	if c.Mispredicts() != 4 {
		t.Errorf("Mispredicts = %d, want 4", c.Mispredicts())
	}
}

func TestCauseClassification(t *testing.T) {
	for cause := Cause(0); int(cause) < NumCauses; cause++ {
		wantPred := cause <= CauseValueWrong
		if cause.Predicted() != wantPred {
			t.Errorf("%s.Predicted() = %v, want %v", cause, cause.Predicted(), wantPred)
		}
		if cause.Mispredict() != (wantPred && cause != CauseCorrect) {
			t.Errorf("%s.Mispredict() = %v", cause, cause.Mispredict())
		}
		if strings.HasPrefix(cause.String(), "cause(") {
			t.Errorf("cause %d has no name", cause)
		}
	}
	if got := Cause(200).String(); got != "cause(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

// Every rate helper must return 0 on a zero denominator instead of NaN.
func TestRateHelpersZeroDenominators(t *testing.T) {
	tests := []struct {
		name   string
		counts Counts
		instrs uint64
		rate   func(Counts) float64
		want   float64
	}{
		{"accuracy empty", Counts{}, 0, Counts.Accuracy, 0},
		{"accuracy never predicted", Counts{Eligible: 10}, 0, Counts.Accuracy, 0},
		{"accuracy half", Counts{Predicted: 4, Correct: 2}, 0, Counts.Accuracy, 50},
		{"coverage empty", Counts{}, 0, Counts.Coverage, 0},
		{"coverage full", Counts{Eligible: 8, Predicted: 8}, 0, Counts.Coverage, 100},
		{"conflict share no mispredicts", Counts{Predicted: 3, Correct: 3}, 0, Counts.ConflictShare, 0},
		{"probe hit rate no probes", Counts{}, 0, Counts.ProbeHitRate, 0},
		{"probe hit rate", Counts{Probes: 4, ProbeHits: 1}, 0, Counts.ProbeHitRate, 25},
		{"flush cycles zero instrs", Counts{FlushCycles: 900}, 0,
			func(c Counts) float64 { return c.FlushCyclesPerKiloInstr(0) }, 0},
		{"flush cycles per ki", Counts{FlushCycles: 900}, 0,
			func(c Counts) float64 { return c.FlushCyclesPerKiloInstr(9_000) }, 100},
	}
	for _, tt := range tests {
		if got := tt.rate(tt.counts); got != tt.want {
			t.Errorf("%s = %v, want %v", tt.name, got, tt.want)
		}
	}
	var conflicted Counts
	conflicted.apply(Event{Cause: CauseStoreConflict})
	conflicted.apply(Event{Cause: CauseAddrMispredict})
	if got := conflicted.ConflictShare(); got != 50 {
		t.Errorf("ConflictShare = %v, want 50", got)
	}
}

func TestTopCause(t *testing.T) {
	var c Counts
	if _, _, ok := c.TopCause(); ok {
		t.Error("empty counts reported a top cause")
	}
	c.apply(Event{Cause: CauseCorrect})
	if _, _, ok := c.TopCause(); ok {
		t.Error("all-correct counts reported a top cause")
	}
	c.apply(Event{Cause: CauseStoreConflict})
	c.apply(Event{Cause: CauseStoreConflict})
	c.apply(Event{Cause: CauseAPTMiss})
	cause, n, ok := c.TopCause()
	if !ok || cause != CauseStoreConflict || n != 2 {
		t.Errorf("TopCause = %v/%d/%v, want store_conflict/2/true", cause, n, ok)
	}
}

// CauseCounts marshals as an object keyed by cause name, omits zeros, and
// rejects unknown names on the way back in.
func TestCauseCountsJSONRoundTrip(t *testing.T) {
	var cc CauseCounts
	cc[CauseCorrect] = 7
	cc[CausePAQDrop] = 2
	data, err := json.Marshal(cc)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"correct":7`) || !strings.Contains(s, `"paq_drop":2`) {
		t.Errorf("marshal = %s", s)
	}
	if strings.Contains(s, "store_conflict") {
		t.Errorf("zero cause not omitted: %s", s)
	}
	var back CauseCounts
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != cc {
		t.Errorf("round trip: got %v, want %v", back, cc)
	}
	if err := json.Unmarshal([]byte(`{"not_a_cause":1}`), &back); err == nil {
		t.Error("unknown cause name accepted")
	}
}

// Eviction folds the least-observed site into the overflow bucket, never
// dropping events: Totals stays exact however small the bound.
func TestCollectorEvictionPreservesTotals(t *testing.T) {
	c := NewCollector(2, "w", "s")
	weights := map[uint64]int{0x100: 5, 0x104: 1, 0x108: 3, 0x10c: 7}
	var want uint64
	for pc, n := range weights {
		for i := 0; i < n; i++ {
			c.Record(pc, Event{Cause: CauseCorrect})
			want++
		}
	}
	p := c.Finish(1000)
	if len(p.Sites) != 2 {
		t.Fatalf("tracked sites = %d, want 2", len(p.Sites))
	}
	if p.EvictedSites != 2 {
		t.Errorf("evicted = %d, want 2", p.EvictedSites)
	}
	if p.Overflow.Eligible == 0 {
		t.Error("overflow bucket empty after eviction")
	}
	if tot := p.Totals(); tot.Eligible != want || tot.Correct != want {
		t.Errorf("Totals = %d/%d, want %d eligible+correct", tot.Eligible, tot.Correct, want)
	}
	if p.Instructions != 1000 || p.Workload != "w" || p.Scheme != "s" {
		t.Errorf("labels = %d/%q/%q", p.Instructions, p.Workload, p.Scheme)
	}
}

// The default bound applies when 0 is passed, and the direct-mapped cache
// must not resurrect an evicted site's pointer (stale-slot invalidation).
func TestCollectorCacheInvalidationOnEvict(t *testing.T) {
	if NewCollector(0, "", "").MaxSites() != DefaultMaxSites {
		t.Error("zero maxSites did not select the default")
	}
	c := NewCollector(1, "", "")
	c.Record(0x40, Event{Cause: CauseCorrect})
	// Same cache slot (pcCacheSize*4 apart), different PC: evicts 0x40.
	c.Record(0x40+pcCacheSize*4, Event{Cause: CauseAPTMiss})
	// Recording 0x40 again must hit the overflow-fold path, not the stale
	// cached *site.
	c.Record(0x40, Event{Cause: CauseCorrect})
	p := c.Finish(0)
	tot := p.Totals()
	if tot.Eligible != 3 {
		t.Errorf("Totals.Eligible = %d, want 3", tot.Eligible)
	}
	if len(p.Sites) != 1 {
		t.Errorf("tracked = %d, want 1", len(p.Sites))
	}
}

func TestCollectorSnapshotAndFinishIdempotent(t *testing.T) {
	c := NewCollector(8, "w", "s")
	if p := c.Snapshot(); p == nil || !p.Partial {
		t.Fatalf("initial snapshot = %+v, want empty partial", p)
	}
	c.Record(0x10, Event{Cause: CauseStoreConflict})
	p1 := c.Finish(42)
	if p1.Partial {
		t.Error("finished profile still marked partial")
	}
	if p2 := c.Finish(99); p2 != p1 {
		t.Error("second Finish returned a different profile")
	}
	if c.Snapshot() != p1 {
		t.Error("Snapshot after Finish is not the final profile")
	}
}

// Ranking orders mispredicts desc, then eligible desc, then PC asc.
func TestRankSites(t *testing.T) {
	sites := []SiteReport{
		{PC: 3, Counts: Counts{Eligible: 10, Predicted: 2, Correct: 2}},
		{PC: 2, Counts: Counts{Eligible: 5, Predicted: 5, Correct: 1}},
		{PC: 1, Counts: Counts{Eligible: 20, Predicted: 2, Correct: 2}},
		{PC: 4, Counts: Counts{Eligible: 20, Predicted: 6, Correct: 2}},
	}
	rankSites(sites)
	want := []uint64{4, 2, 1, 3} // 4 mispredicts each for pc 4 and 2; 4 wins on eligibility
	for i, pc := range want {
		if sites[i].PC != pc {
			t.Fatalf("rank %d = pc %d, want %d (order %v)", i, sites[i].PC, pc, sites)
		}
	}
}

// Merge unions per-interval profiles, sums shared sites, re-applies the
// bound by folding the tail, and keeps totals exact.
func TestMerge(t *testing.T) {
	mk := func(pc uint64, eligible, predicted, correct uint64) *Profile {
		return &Profile{
			Workload: "w", Scheme: "s", Instructions: 100,
			Sites: []SiteReport{{PC: pc, Counts: Counts{Eligible: eligible, Predicted: predicted, Correct: correct}}},
		}
	}
	a := mk(0x10, 10, 8, 4)
	b := mk(0x10, 6, 2, 2)
	b.Sites = append(b.Sites, SiteReport{PC: 0x20, Counts: Counts{Eligible: 3, Predicted: 3, Correct: 1}})
	b.Sites = append(b.Sites, SiteReport{PC: 0x30, Counts: Counts{Eligible: 1}})

	m := Merge([]*Profile{a, nil, b}, 2)
	if m.Workload != "w" || m.Scheme != "s" || m.Instructions != 200 {
		t.Errorf("labels = %q/%q/%d", m.Workload, m.Scheme, m.Instructions)
	}
	if len(m.Sites) != 2 {
		t.Fatalf("sites = %d, want 2 (bound re-applied)", len(m.Sites))
	}
	s, ok := m.Site(0x10)
	if !ok || s.Eligible != 16 || s.Predicted != 10 || s.Correct != 6 {
		t.Errorf("merged 0x10 = %+v", s.Counts)
	}
	if tot := m.Totals(); tot.Eligible != 20 {
		t.Errorf("Totals.Eligible = %d, want 20", tot.Eligible)
	}
	if m.EvictedSites != 1 {
		t.Errorf("EvictedSites = %d, want 1", m.EvictedSites)
	}

	empty := Merge(nil, 0)
	if empty.MaxSites != DefaultMaxSites || len(empty.Sites) != 0 {
		t.Errorf("empty merge = %+v", empty)
	}
}

func TestDiffAndLargestAccuracyRegression(t *testing.T) {
	a := &Profile{Sites: []SiteReport{
		{PC: 1, Counts: Counts{Eligible: 10, Predicted: 10, Correct: 10}}, // 100% -> 50%
		{PC: 2, Counts: Counts{Eligible: 10, Predicted: 10, Correct: 5}},  // 50% -> 100%
		{PC: 3, Counts: Counts{Eligible: 10}},                             // never predicted
		{PC: 9, Counts: Counts{Eligible: 1, Predicted: 1, Correct: 1}},    // only in A
	}}
	b := &Profile{Sites: []SiteReport{
		{PC: 1, Counts: Counts{Eligible: 10, Predicted: 10, Correct: 5}},
		{PC: 2, Counts: Counts{Eligible: 10, Predicted: 10, Correct: 10}},
		{PC: 3, Counts: Counts{Eligible: 10}},
	}}
	rows := Diff(a, b)
	if len(rows) != 3 {
		t.Fatalf("diff rows = %d, want 3 shared sites", len(rows))
	}
	if rows[0].PC != 1 || rows[0].AccuracyDelta != -50 {
		t.Errorf("worst row = pc %d delta %v, want pc 1 delta -50", rows[0].PC, rows[0].AccuracyDelta)
	}
	worst, ok := LargestAccuracyRegression(a, b)
	if !ok || worst.PC != 1 {
		t.Errorf("LargestAccuracyRegression = %v/%v, want pc 1", worst.PC, ok)
	}
	// Never-predicted sites (0/0 accuracy both sides) must not rank.
	if _, ok := LargestAccuracyRegression(b, a); !ok {
		t.Error("reverse direction should flag pc 2's regression")
	}
	none := &Profile{Sites: []SiteReport{{PC: 3, Counts: Counts{Eligible: 10}}}}
	if _, ok := LargestAccuracyRegression(none, none); ok {
		t.Error("0/0-predicted site counted as a regression")
	}
}

func TestWritePrometheus(t *testing.T) {
	p := &Profile{
		Workload: "mcf", Scheme: "dlvp",
		Sites: []SiteReport{{PC: 0x400, Counts: Counts{
			Eligible: 4, Predicted: 2, Correct: 1,
			Causes:      CauseCounts{CauseCorrect: 1, CauseStoreConflict: 1, CauseAPTMiss: 2},
			FlushCycles: 9,
		}}},
		Overflow: Counts{Eligible: 2, Causes: CauseCounts{CauseUnpredicted: 2}},
	}
	var sb strings.Builder
	WritePrometheus(&sb, p)
	out := sb.String()
	for _, want := range []string{
		`dlvp_site_eligible_total{workload="mcf",scheme="dlvp",pc="0x400"} 4`,
		`dlvp_site_flush_cycles_total{workload="mcf",scheme="dlvp",pc="0x400"} 9`,
		`dlvp_site_cause_total{workload="mcf",scheme="dlvp",pc="0x400",cause="store_conflict"} 1`,
		`dlvp_site_cause_total{workload="mcf",scheme="dlvp",pc="overflow",cause="unpredicted"} 2`,
		`dlvp_site_accuracy_pct{workload="mcf",scheme="dlvp",pc="0x400"} 50`,
		"# TYPE dlvp_site_eligible_total counter",
		"# TYPE dlvp_site_accuracy_pct gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestWritePrometheusEscapesLabelsAsObs: label values are escaped as the
// obs exposition escapes them. The text format escapes only backslash,
// double quote and newline, so a tab is written raw; Go's %q wrote it as
// \t, which the format does not define.
func TestWritePrometheusEscapesLabelsAsObs(t *testing.T) {
	c := NewCollector(4, "a\tb", `c"d\e`+"\nf")
	c.Record(0x400, Event{Cause: CauseCorrect})
	var sb strings.Builder
	WritePrometheus(&sb, c.Finish(100))
	want := "dlvp_site_eligible_total{workload=\"a\tb\",scheme=\"c\\\"d\\\\e\\nf\",pc=\"0x400\"} 1\n"
	if !strings.Contains(sb.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, sb.String())
	}
}

// Profile JSON must round-trip through the wire shape the server serves
// and the CLI loads.
func TestProfileJSONRoundTrip(t *testing.T) {
	c := NewCollector(4, "mcf", "dlvp")
	c.Record(0x400, Event{Cause: CauseStoreConflict, FlushCycles: 9, Probed: true, ProbeHit: true})
	c.Record(0x400, Event{Cause: CauseCorrect, Probed: true, ProbeHit: true})
	c.Record(0x404, Event{Cause: CauseAPTMiss})
	p := c.Finish(5000)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Totals() != p.Totals() {
		t.Errorf("totals changed across round trip: %+v vs %+v", back.Totals(), p.Totals())
	}
	if s, ok := back.Site(0x400); !ok || s.FlushCycles != 9 || s.Probes != 2 || s.ProbeHits != 2 {
		t.Errorf("site 0x400 = %+v/%v", s, ok)
	}
}
