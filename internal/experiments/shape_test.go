package experiments

import (
	"testing"

	"dlvp/internal/config"
)

// TestHeadlineShape locks the paper's central qualitative claims on a
// representative subset at a moderate budget: DLVP beats VTAGE on average,
// its accuracy clears the 99% bar, and the per-workload winners land where
// the paper says they land. This is the regression gate for the whole
// reproduction — if a change flips one of these orderings, it changed the
// science, not just a number.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("headline shape needs warmup-scale runs")
	}
	p := Params{
		Instrs: 120_000,
		Workloads: []string{
			"perlbmk",  // the paper's maximum-speedup workload
			"aifirf",   // DLVP-favoured (fresh values, stable addresses)
			"nat",      // VTAGE-favoured (value > address repeatability)
			"soplex",   // VTAGE-favoured (sparse zeros)
			"vortex",   // multi-destination loads
			"v8crypto", // committed conflicts
			"gap",      // in-flight conflicts (LSCD)
			"twolf",    // unpredictable control
		},
	}
	g, err := runMatrix(p, map[string]config.Core{
		"base":  config.Baseline(),
		"dlvp":  config.DLVP(),
		"vtage": config.VTAGE(),
	})
	if err != nil {
		t.Fatal(err)
	}

	spD, spV := g.meanSpeedup("dlvp"), g.meanSpeedup("vtage")
	if spD <= spV {
		t.Errorf("average speedup ordering flipped: DLVP %.2f%% vs VTAGE %.2f%%", spD, spV)
	}
	if spD <= 0 {
		t.Errorf("DLVP average speedup non-positive: %.2f%%", spD)
	}
	if acc := g.accuracy("dlvp"); acc < 98.5 {
		t.Errorf("DLVP aggregate accuracy = %.2f%%, paper requires ~99%%", acc)
	}

	// Per-workload winners from the paper's narrative.
	if g.speedup("perlbmk", "dlvp") < 10 {
		t.Errorf("perlbmk DLVP speedup = %.2f%%, should be the standout", g.speedup("perlbmk", "dlvp"))
	}
	if g.speedup("perlbmk", "dlvp") <= g.speedup("perlbmk", "vtage") {
		t.Error("perlbmk must favour DLVP")
	}
	if g.speedup("soplex", "vtage") < g.speedup("soplex", "dlvp") {
		t.Error("soplex must favour VTAGE (value repeatability)")
	}
	// gap: DLVP must stay roughly neutral thanks to the LSCD.
	if sp := g.speedup("gap", "dlvp"); sp < -3 {
		t.Errorf("gap DLVP = %.2f%%; LSCD protection failed", sp)
	}
	// VTAGE must not predict vortex's LDPs (static filter).
	if cov := g.at("vortex", "vtage").VP.Coverage(); cov > 20 {
		t.Errorf("vortex VTAGE coverage = %.1f%%; static filter leak?", cov)
	}
	if cov := g.at("vortex", "dlvp").VP.Coverage(); cov < 20 {
		t.Errorf("vortex DLVP coverage = %.1f%%; multi-dest address prediction broken?", cov)
	}
}
