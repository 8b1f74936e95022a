package experiments

import (
	"fmt"

	"dlvp/internal/config"
	"dlvp/internal/tabletext"
	"dlvp/internal/trace"
)

// Summary regenerates the headline paper-vs-measured comparison in one
// table: the numbers EXPERIMENTS.md tracks. It reruns the underlying
// measurements rather than quoting cached results.
func Summary(p Params) ([]*tabletext.Table, error) {
	t := &tabletext.Table{
		Title:  "Headline comparison: paper vs this reproduction",
		Header: []string{"quantity", "paper", "measured"},
	}

	// Figures 1, 2 and 4: one emulation pass per workload feeds all three.
	var conflicts conflictTally
	var repeats repeatTally
	addr := newAddrTally(8)
	if err := streamPool(p, conflicts.open, repeats.open, addr.open); err != nil {
		return nil, err
	}
	t.AddRow("conflicts with committed stores (fig 1)", "~67%", fmt.Sprintf("%.1f%%", conflicts.committedShare()))
	m := trace.MeanRepeatStats(repeats.stats)
	t.AddRow("loads with addresses repeating >=8x (fig 2)", "91%", fmt.Sprintf("%.1f%%", m.AddrCumPct[3]))
	t.AddRow("loads with values repeating >=64x (fig 2)", "80%", fmt.Sprintf("%.1f%%", m.ValueCumPct[6]))
	t.AddRow("PAP standalone coverage/accuracy (fig 4)", "37% / 99.1%",
		fmt.Sprintf("%.1f%% / %.2f%%", addr.pap.Coverage(), addr.pap.Accuracy()))
	t.AddRow("CAP@8 standalone coverage/accuracy (fig 4)", "29.5% / 97.7%",
		fmt.Sprintf("%.1f%% / %.2f%%", addr.cap[0].Coverage(), addr.cap[0].Accuracy()))

	// Figure 6 averages.
	g, err := runMatrix(p, map[string]config.Core{
		"base":  config.Baseline(),
		"cap":   config.CAPDLVP(),
		"vtage": config.VTAGE(),
		"dlvp":  config.DLVP(),
	})
	if err != nil {
		return nil, err
	}
	maxD, _ := g.best("dlvp")
	t.AddRow("DLVP avg speedup (fig 6a)", "4.8%", fmt.Sprintf("%.2f%%", g.meanSpeedup("dlvp")))
	t.AddRow("CAP avg speedup (fig 6a)", "2.3%", fmt.Sprintf("%.2f%%", g.meanSpeedup("cap")))
	t.AddRow("VTAGE avg speedup (fig 6a)", "2.1%", fmt.Sprintf("%.2f%%", g.meanSpeedup("vtage")))
	t.AddRow("max DLVP speedup (fig 6a)", "71%", fmt.Sprintf("%.1f%%", maxD))
	t.AddRow("DLVP avg coverage (fig 6b)", "31.1%", fmt.Sprintf("%.1f%%", g.meanCoverage("dlvp")))
	t.AddRow("VTAGE avg coverage (fig 6b)", "29.6%", fmt.Sprintf("%.1f%%", g.meanCoverage("vtage")))
	// A ratio of pool means, unlike Figure 6c's mean of per-workload ratios.
	energy := func(scheme string) float64 {
		return g.mean(func(w string) float64 { return g.at(w, scheme).CoreEnergy })
	}
	t.AddRow("DLVP core energy vs baseline (fig 6c)", "~1.00", fmt.Sprintf("%.3f", energy("dlvp")/energy("base")))
	t.Notes = append(t.Notes,
		"shapes, not absolute numbers, are the reproduction target: the substrate is a from-scratch simulator on synthetic kernels",
		fmt.Sprintf("pool: %d workloads, %d instructions each", len(g.names), p.Instrs))
	return []*tabletext.Table{t}, nil
}
