package experiments

import (
	"fmt"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
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
	results, err := runMatrix(p, map[string]config.Core{
		"base":  config.Baseline(),
		"cap":   config.CAPDLVP(),
		"vtage": config.VTAGE(),
		"dlvp":  config.DLVP(),
	})
	if err != nil {
		return nil, err
	}
	names := sortedNames(results)
	avg := func(scheme string, f func(metrics.RunStats) float64) float64 {
		var s float64
		for _, n := range names {
			s += f(results[n][scheme])
		}
		return s / float64(len(names))
	}
	speedup := func(scheme string) float64 {
		var s float64
		for _, n := range names {
			s += metrics.SpeedupPct(results[n]["base"], results[n][scheme])
		}
		return s / float64(len(names))
	}
	var maxD float64
	for _, n := range names {
		if sp := metrics.SpeedupPct(results[n]["base"], results[n]["dlvp"]); sp > maxD {
			maxD = sp
		}
	}
	t.AddRow("DLVP avg speedup (fig 6a)", "4.8%", fmt.Sprintf("%.2f%%", speedup("dlvp")))
	t.AddRow("CAP avg speedup (fig 6a)", "2.3%", fmt.Sprintf("%.2f%%", speedup("cap")))
	t.AddRow("VTAGE avg speedup (fig 6a)", "2.1%", fmt.Sprintf("%.2f%%", speedup("vtage")))
	t.AddRow("max DLVP speedup (fig 6a)", "71%", fmt.Sprintf("%.1f%%", maxD))
	t.AddRow("DLVP avg coverage (fig 6b)", "31.1%",
		fmt.Sprintf("%.1f%%", avg("dlvp", func(r metrics.RunStats) float64 { return r.VP.Coverage() })))
	t.AddRow("VTAGE avg coverage (fig 6b)", "29.6%",
		fmt.Sprintf("%.1f%%", avg("vtage", func(r metrics.RunStats) float64 { return r.VP.Coverage() })))
	t.AddRow("DLVP core energy vs baseline (fig 6c)", "~1.00",
		fmt.Sprintf("%.3f", avg("dlvp", func(r metrics.RunStats) float64 { return r.CoreEnergy })/
			avg("base", func(r metrics.RunStats) float64 { return r.CoreEnergy })))
	t.Notes = append(t.Notes,
		"shapes, not absolute numbers, are the reproduction target: the substrate is a from-scratch simulator on synthetic kernels",
		fmt.Sprintf("pool: %d workloads, %d instructions each", len(names), p.Instrs))
	return []*tabletext.Table{t}, nil
}
