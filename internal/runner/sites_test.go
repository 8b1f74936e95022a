package runner

import (
	"context"
	"testing"

	"dlvp/internal/config"
)

// A default engine attaches the attribution profile to its results,
// caches it content-addressed alongside the stats, reconciles it exactly
// with the aggregate VP counters, and exposes nothing live once done.
func TestRunResultRecordsSites(t *testing.T) {
	r := New(Options{Workers: 2})
	job := Job{Workload: "perlbmk", Config: config.DLVP(), Instrs: testInstrs}
	res, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first run reported cached")
	}
	if res.Sites == nil {
		t.Fatal("no site profile on a default engine's result")
	}
	tot := res.Sites.Totals()
	if tot.Eligible != res.Stats.VP.Eligible || tot.Predicted != res.Stats.VP.Predicted ||
		tot.Correct != res.Stats.VP.Correct {
		t.Errorf("site totals %d/%d/%d != stats VP %d/%d/%d",
			tot.Eligible, tot.Predicted, tot.Correct,
			res.Stats.VP.Eligible, res.Stats.VP.Predicted, res.Stats.VP.Correct)
	}
	if res.Sites.Instructions != res.Stats.Instructions {
		t.Errorf("profile instructions = %d, stats say %d", res.Sites.Instructions, res.Stats.Instructions)
	}
	if res.Sites.Partial {
		t.Error("finished run's profile still marked partial")
	}

	again, cached, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second identical run not served from cache")
	}
	if again.Sites == nil || len(again.Sites.Sites) != len(res.Sites.Sites) {
		t.Error("cached result lost its site profile")
	}

	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.LiveSites(key); got != nil {
		t.Error("LiveSites non-nil after completion")
	}
}

// A sampled run merges per-interval profiles into one that reconciles
// exactly with the summed measured-region counters.
func TestSampledRunMergesSiteProfiles(t *testing.T) {
	r := New(Options{Workers: 2})
	job := Job{Workload: "perlbmk", Config: config.DLVP(), Instrs: 40_000,
		Sampling: &SamplingSpec{Intervals: 4}}
	res, _, err := r.RunResult(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites == nil {
		t.Fatal("sampled run carries no site profile")
	}
	tot := res.Sites.Totals()
	if tot.Eligible != res.Stats.VP.Eligible || tot.Predicted != res.Stats.VP.Predicted ||
		tot.Correct != res.Stats.VP.Correct {
		t.Errorf("sampled site totals %d/%d/%d != measured VP %d/%d/%d",
			tot.Eligible, tot.Predicted, tot.Correct,
			res.Stats.VP.Eligible, res.Stats.VP.Predicted, res.Stats.VP.Correct)
	}
	if res.Sites.Instructions != res.Sampled.MeasuredTotal {
		t.Errorf("profile spans %d instrs, want the measured total %d",
			res.Sites.Instructions, res.Sampled.MeasuredTotal)
	}
	if res.Sites.Workload != job.Workload || res.Sites.Scheme == "" {
		t.Errorf("merged profile labels = %q/%q", res.Sites.Workload, res.Sites.Scheme)
	}
}
