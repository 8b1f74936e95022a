package experiments

import (
	"fmt"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/tabletext"
)

// DVTAGEComparison is an extension experiment: the paper discusses D-VTAGE
// (Section 2.1) as related work — it stores strides behind a last-value
// table, capturing drifting values a plain VTAGE cannot, at the cost of an
// adder on the prediction path and a speculative last-value window. This
// driver measures how the differential design compares against VTAGE and
// DLVP on this repository's workload pool.
func DVTAGEComparison(p Params) ([]*tabletext.Table, error) {
	results, err := runMatrix(p, map[string]config.Core{
		"base":   config.Baseline(),
		"vtage":  config.VTAGE(),
		"dvtage": config.DVTAGE(),
		"dlvp":   config.DLVP(),
	})
	if err != nil {
		return nil, err
	}
	names := sortedNames(results)
	t := &tabletext.Table{
		Title:  "Extension: D-VTAGE vs VTAGE vs DLVP (per-workload speedup %)",
		Header: []string{"workload", "VTAGE", "D-VTAGE", "DLVP"},
	}
	var sv, sd, sl, cv, cd, cl float64
	var pv, pd, pl, qv, qd, ql uint64
	for _, n := range names {
		r := results[n]
		vs := metrics.SpeedupPct(r["base"], r["vtage"])
		ds := metrics.SpeedupPct(r["base"], r["dvtage"])
		ls := metrics.SpeedupPct(r["base"], r["dlvp"])
		t.AddRow(n, vs, ds, ls)
		sv += vs
		sd += ds
		sl += ls
		cv += r["vtage"].VP.Coverage()
		cd += r["dvtage"].VP.Coverage()
		cl += r["dlvp"].VP.Coverage()
		pv += r["vtage"].VP.Predicted
		qv += r["vtage"].VP.Correct
		pd += r["dvtage"].VP.Predicted
		qd += r["dvtage"].VP.Correct
		pl += r["dlvp"].VP.Predicted
		ql += r["dlvp"].VP.Correct
	}
	k := float64(len(names))
	t.AddRow("AVERAGE", sv/k, sd/k, sl/k)
	t.Notes = append(t.Notes,
		"avg coverage: VTAGE "+fmtPct(cv/k)+", D-VTAGE "+fmtPct(cd/k)+", DLVP "+fmtPct(cl/k),
		"aggregate accuracy: VTAGE "+fmtPct(aggAcc(pv, qv))+", D-VTAGE "+fmtPct(aggAcc(pd, qd))+", DLVP "+fmtPct(aggAcc(pl, ql)),
		"D-VTAGE adds stride capture over VTAGE but still goes stale on non-strided conflicting stores")
	return []*tabletext.Table{t}, nil
}

func fmtPct(v float64) string {
	return fmt.Sprintf("%.2f%%", v)
}
