package experiments

import (
	"fmt"

	"dlvp/internal/config"
	"dlvp/internal/tabletext"
)

// DVTAGEComparison is an extension experiment: the paper discusses D-VTAGE
// (Section 2.1) as related work — it stores strides behind a last-value
// table, capturing drifting values a plain VTAGE cannot, at the cost of an
// adder on the prediction path and a speculative last-value window. This
// driver measures how the differential design compares against VTAGE and
// DLVP on this repository's workload pool.
func DVTAGEComparison(p Params) ([]*tabletext.Table, error) {
	g, err := runMatrix(p, map[string]config.Core{
		"base":   config.Baseline(),
		"vtage":  config.VTAGE(),
		"dvtage": config.DVTAGE(),
		"dlvp":   config.DLVP(),
	})
	if err != nil {
		return nil, err
	}
	t := &tabletext.Table{
		Title:  "Extension: D-VTAGE vs VTAGE vs DLVP (per-workload speedup %)",
		Header: []string{"workload", "VTAGE", "D-VTAGE", "DLVP"},
	}
	for _, w := range g.names {
		t.AddRow(w, g.speedup(w, "vtage"), g.speedup(w, "dvtage"), g.speedup(w, "dlvp"))
	}
	t.AddRow("AVERAGE", g.meanSpeedup("vtage"), g.meanSpeedup("dvtage"), g.meanSpeedup("dlvp"))
	t.Notes = append(t.Notes,
		"avg coverage: VTAGE "+fmtPct(g.meanCoverage("vtage"))+", D-VTAGE "+fmtPct(g.meanCoverage("dvtage"))+", DLVP "+fmtPct(g.meanCoverage("dlvp")),
		"aggregate accuracy: VTAGE "+fmtPct(g.accuracy("vtage"))+", D-VTAGE "+fmtPct(g.accuracy("dvtage"))+", DLVP "+fmtPct(g.accuracy("dlvp")),
		"D-VTAGE adds stride capture over VTAGE but still goes stale on non-strided conflicting stores")
	return []*tabletext.Table{t}, nil
}

func fmtPct(v float64) string {
	return fmt.Sprintf("%.2f%%", v)
}
