package uarch

import (
	"reflect"
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/siteprof"
	"dlvp/internal/workloads"
)

// runWithSites simulates a workload with site attribution on and returns
// the profile and the core.
func runWithSites(t *testing.T, name string, cfg config.Core, instrs uint64, maxSites int) (*siteprof.Profile, *Core) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	c := New(cfg, w.Build(), w.Reader(instrs))
	c.EnableSiteProfile(maxSites)
	if s := c.Run(instrs * 100); s.Instructions == 0 {
		t.Fatalf("%s: nothing committed", name)
	}
	p := c.SiteProfile()
	if p == nil {
		t.Fatal("SiteProfile() = nil after a run with EnableSiteProfile")
	}
	return p, c
}

// checkReconciles asserts the package's core invariant: per-site counters
// plus the overflow bucket sum EXACTLY to the run's aggregate VP stats,
// and the cause taxonomy partitions every eligible load exactly once.
func checkReconciles(t *testing.T, p *siteprof.Profile, c *Core) {
	t.Helper()
	s := c.Stats()
	tot := p.Totals()
	checks := []struct {
		name      string
		got, want uint64
	}{
		{"eligible", tot.Eligible, s.VP.Eligible},
		{"predicted", tot.Predicted, s.VP.Predicted},
		{"correct", tot.Correct, s.VP.Correct},
	}
	for _, chk := range checks {
		if chk.got != chk.want {
			t.Errorf("site totals %s = %d, run stats say %d", chk.name, chk.got, chk.want)
		}
	}
	var causeSum uint64
	for _, n := range tot.Causes {
		causeSum += n
	}
	if causeSum != tot.Eligible {
		t.Errorf("cause sum %d != eligible %d: the taxonomy is not a partition", causeSum, tot.Eligible)
	}
}

// Per-site counters must reconcile exactly with the aggregate RunStats —
// the invariant the CI reconciliation step gates.
func TestSiteProfileReconcilesWithRunStats(t *testing.T) {
	const instrs = 60_000
	for _, tc := range []struct {
		workload string
		cfg      config.Core
	}{
		{"mcf", config.DLVP()},
		{"perlbmk", config.DLVP()},
		{"mcf", config.CAPDLVP()},
		{"mcf", config.VTAGE()},
	} {
		p, c := runWithSites(t, tc.workload, tc.cfg, instrs, 0)
		checkReconciles(t, p, c)
		if len(p.Sites) == 0 {
			t.Errorf("%s/%s: no sites tracked", tc.workload, tc.cfg.VP.Scheme)
		}
	}
}

// Reconciliation must survive eviction pressure: with a tiny site bound
// most sites fold into the overflow bucket, but totals stay exact.
func TestSiteProfileReconcilesUnderEviction(t *testing.T) {
	const instrs = 60_000
	p, c := runWithSites(t, "mcf", config.DLVP(), instrs, 4)
	if len(p.Sites) > 4 {
		t.Errorf("tracked %d sites, bound is 4", len(p.Sites))
	}
	if p.EvictedSites == 0 {
		t.Error("expected evictions at maxSites=4 on mcf")
	}
	if p.Overflow.Eligible == 0 {
		t.Error("overflow bucket empty despite evictions")
	}
	checkReconciles(t, p, c)
}

// A DLVP profile must attribute causes beyond correct/unpredicted: the
// drill-down is useless if everything lands in one bucket.
func TestSiteProfileAttributesCauses(t *testing.T) {
	const instrs = 60_000
	p, _ := runWithSites(t, "mcf", config.DLVP(), instrs, 0)
	tot := p.Totals()
	if tot.Causes[siteprof.CauseCorrect] == 0 {
		t.Error("no correct predictions attributed")
	}
	mispredictCauses := tot.Causes[siteprof.CauseStoreConflict] +
		tot.Causes[siteprof.CauseAddrMispredict] + tot.Causes[siteprof.CauseTagAlias]
	if mispredictCauses != tot.Mispredicts() {
		t.Errorf("address-scheme mispredict causes sum to %d, stats say %d mispredicts",
			mispredictCauses, tot.Mispredicts())
	}
	unpredicted := tot.Causes[siteprof.CauseAPTMiss] + tot.Causes[siteprof.CauseConfidenceDropped] +
		tot.Causes[siteprof.CauseLSCDFiltered] + tot.Causes[siteprof.CausePAQDrop] +
		tot.Causes[siteprof.CauseUnpredicted]
	if unpredicted != tot.Eligible-tot.Predicted {
		t.Errorf("no-prediction causes sum to %d, want %d", unpredicted, tot.Eligible-tot.Predicted)
	}
	// Ranking contract: mispredicts non-increasing down the list.
	for i := 1; i < len(p.Sites); i++ {
		if p.Sites[i].Mispredicts() > p.Sites[i-1].Mispredicts() {
			t.Fatalf("sites not ranked: index %d has %d mispredicts after %d",
				i, p.Sites[i].Mispredicts(), p.Sites[i-1].Mispredicts())
		}
	}
}

// Profiling off (the default) must leave SiteProfile nil.
func TestSiteProfileOffByDefault(t *testing.T) {
	w, _ := workloads.ByName("perlbmk")
	c := New(config.DLVP(), w.Build(), w.Reader(5_000))
	c.Run(0)
	if c.SiteProfile() != nil {
		t.Error("SiteProfile() non-nil without EnableSiteProfile")
	}
}

// Site profiling must not perturb the simulation: the full RunStats is
// bit-identical with and without the collector attached.
func TestSiteProfileDoesNotPerturbSimulation(t *testing.T) {
	const instrs = 30_000
	for _, cfg := range []config.Core{config.DLVP(), config.VTAGE()} {
		w, _ := workloads.ByName("mcf")
		plain := New(cfg, w.Build(), w.Reader(instrs))
		sPlain := plain.Run(0)
		prof := New(cfg, w.Build(), w.Reader(instrs))
		prof.EnableSiteProfile(0)
		sProf := prof.Run(0)
		if !reflect.DeepEqual(sPlain, sProf) {
			t.Errorf("%s: site profiling perturbed the run: %+v vs %+v", cfg.VP.Scheme, sPlain, sProf)
		}
	}
}

// Under a sample window the profile covers exactly the measured region:
// per-site sums reconcile with MeasuredCounters, not the whole run.
func TestSiteProfileScopedToSampleWindow(t *testing.T) {
	const warmup, measured = 10_000, 20_000
	w, _ := workloads.ByName("mcf")
	c := New(config.DLVP(), w.Build(), w.Reader(warmup+measured+10_000))
	c.SetSampleWindow(warmup, measured)
	c.EnableSiteProfile(0)
	c.Run(0)
	meas, ok := c.MeasuredCounters()
	if !ok {
		t.Fatal("sample window did not complete")
	}
	p := c.SiteProfile()
	tot := p.Totals()
	if tot.Eligible != meas[metrics.VPEligible] || tot.Predicted != meas[metrics.VPPredicted] || tot.Correct != meas[metrics.VPCorrect] {
		t.Errorf("windowed site totals %d/%d/%d != measured counters %d/%d/%d",
			tot.Eligible, tot.Predicted, tot.Correct,
			meas[metrics.VPEligible], meas[metrics.VPPredicted], meas[metrics.VPCorrect])
	}
	if p.Instructions != meas[metrics.Instructions] {
		t.Errorf("profile instructions = %d, want the measured region %d", p.Instructions, meas[metrics.Instructions])
	}
}

// benchSiteRun is the common body of the overhead benchmarks: one full
// DLVP simulation, optionally with site attribution.
func benchSiteRun(b *testing.B, sites bool) {
	const instrs = 50_000
	w, ok := workloads.ByName("mcf")
	if !ok {
		b.Fatal("workload mcf not registered")
	}
	p := w.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(config.DLVP(), p, w.Reader(instrs))
		if sites {
			c.EnableSiteProfile(0)
		}
		c.Run(0)
	}
}

// BenchmarkSiteprofOverhead measures a full simulation with site
// attribution on; compare against BenchmarkSiteprofBaseline (CI's
// bench-sanity step runs both). The acceptance budget is <3% slowdown:
//
//	go test -run - -bench 'BenchmarkSiteprof(Overhead|Baseline)' ./internal/uarch/
func BenchmarkSiteprofOverhead(b *testing.B) { benchSiteRun(b, true) }

// BenchmarkSiteprofBaseline is the attribution-off control.
func BenchmarkSiteprofBaseline(b *testing.B) { benchSiteRun(b, false) }
