package experiments

import (
	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/predictor/vtage"
	"dlvp/internal/tabletext"
)

// Fig7 reproduces Figure 7: the VTAGE flavours on an ARM-style ISA —
// vanilla, with a dynamic opcode filter, and with a static opcode filter
// (pre-blocking LDP/LDM/VLD), each predicting loads only or all
// value-producing instructions. The paper's findings: filters rescue
// vanilla VTAGE (multi-destination loads wreck it), static beats dynamic
// (no training mispredictions), and loads-only beats all-instructions at a
// modest predictor budget.
func Fig7(p Params) ([]*tabletext.Table, error) {
	mk := func(filter vtage.FilterKind, loadsOnly bool) config.Core {
		c := config.VTAGE()
		c.VP.VTAGE.Filter = filter
		c.VP.VTAGE.LoadsOnly = loadsOnly
		return c
	}
	cfgs := map[string]config.Core{
		"base":          config.Baseline(),
		"vanilla-loads": mk(vtage.FilterNone, true),
		"dynamic-loads": mk(vtage.FilterDynamic, true),
		"static-loads":  mk(vtage.FilterStatic, true),
		"vanilla-all":   mk(vtage.FilterNone, false),
		"dynamic-all":   mk(vtage.FilterDynamic, false),
		"static-all":    mk(vtage.FilterStatic, false),
	}
	g, err := runMatrix(p, cfgs)
	if err != nil {
		return nil, err
	}

	t := &tabletext.Table{
		Title:  "Figure 7: VTAGE flavours (averages across workloads)",
		Header: []string{"configuration", "speedup %", "coverage %", "accuracy %", "value flushes"},
	}
	for _, scheme := range []string{"vanilla-loads", "dynamic-loads", "static-loads",
		"vanilla-all", "dynamic-all", "static-all"} {
		t.AddRow(scheme, g.meanSpeedup(scheme), g.meanCoverage(scheme), g.accuracy(scheme),
			g.total(scheme, func(r metrics.RunStats) uint64 { return r.ValueFlushes }))
	}
	t.Notes = append(t.Notes,
		"paper: static filter > dynamic filter > vanilla; loads-only > all-instructions at an 8KB budget",
		"coverage denominators differ: loads-only counts loads, all counts every value-producing instruction")
	return []*tabletext.Table{t}, nil
}
