package experiments

import (
	"fmt"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/tabletext"
)

// Ablations regenerates the design-choice studies the paper refers to but
// does not tabulate ("our experiments, not included due to limited space,
// show that Policy-2 is superior", the 4-entry LSCD sizing, way-predicted
// probing, the PAQ lifetime N, and the 16-bit load-path history length).
// It is registered as the extension experiment id "ablations".
func Ablations(p Params) ([]*tabletext.Table, error) {
	var out []*tabletext.Table
	for _, abl := range []func(Params) (*tabletext.Table, error){
		ablAllocPolicy,
		ablLSCD,
		ablWayPrediction,
		ablPAQLifetime,
		ablHistoryLength,
	} {
		t, err := abl(p)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// summarize runs a config set and returns (avg speedup vs "base", aggregate
// accuracy, avg coverage) per scheme name.
func summarize(p Params, cfgs map[string]config.Core) (map[string][3]float64, error) {
	results, err := runMatrix(p, cfgs)
	if err != nil {
		return nil, err
	}
	names := sortedNames(results)
	out := make(map[string][3]float64)
	for scheme := range cfgs {
		if scheme == "base" {
			continue
		}
		var sp, cov float64
		var predicted, correct uint64
		for _, n := range names {
			r := results[n]
			sp += metrics.SpeedupPct(r["base"], r[scheme])
			cov += r[scheme].VP.Coverage()
			predicted += r[scheme].VP.Predicted
			correct += r[scheme].VP.Correct
		}
		k := float64(len(names))
		out[scheme] = [3]float64{sp / k, aggAcc(predicted, correct), cov / k}
	}
	return out, nil
}

func ablAllocPolicy(p Params) (*tabletext.Table, error) {
	p1 := config.DLVP()
	p1.VP.PAP.AllocPolicy1 = true
	res, err := summarize(p, map[string]config.Core{
		"base":     config.Baseline(),
		"policy-1": p1,
		"policy-2": config.DLVP(),
	})
	if err != nil {
		return nil, err
	}
	t := &tabletext.Table{
		Title:  "Ablation: APT allocation policy (Section 3.1.2)",
		Header: []string{"policy", "avg speedup %", "accuracy %", "avg coverage %"},
	}
	for _, name := range []string{"policy-1", "policy-2"} {
		v := res[name]
		t.AddRow(name, v[0], v[1], v[2])
	}
	t.Notes = append(t.Notes,
		"paper: Policy-2 (allocate only over zero-confidence victims) is superior — confident entries survive eviction pressure")
	return t, nil
}

func ablLSCD(p Params) (*tabletext.Table, error) {
	cfgs := map[string]config.Core{"base": config.Baseline()}
	sizes := []int{0, 2, 4, 8, 16}
	for _, n := range sizes {
		c := config.DLVP()
		c.VP.LSCDEntries = n
		cfgs[fmt.Sprintf("lscd-%02d", n)] = c
	}
	res, err := summarize(p, cfgs)
	if err != nil {
		return nil, err
	}
	t := &tabletext.Table{
		Title:  "Ablation: LSCD size (Section 3.2.2; the paper uses 4 entries)",
		Header: []string{"entries", "avg speedup %", "accuracy %", "avg coverage %"},
	}
	for _, n := range sizes {
		v := res[fmt.Sprintf("lscd-%02d", n)]
		t.AddRow(n, v[0], v[1], v[2])
	}
	t.Notes = append(t.Notes,
		"0 entries: in-flight-store conflicts flush unchecked; larger filters trade coverage for accuracy")
	return t, nil
}

func ablWayPrediction(p Params) (*tabletext.Table, error) {
	off := config.DLVP()
	off.VP.PAP.WayPredict = false
	res, err := summarize(p, map[string]config.Core{
		"base":    config.Baseline(),
		"way-on":  config.DLVP(),
		"way-off": off,
	})
	if err != nil {
		return nil, err
	}
	t := &tabletext.Table{
		Title:  "Ablation: probe way prediction (the paper's power optimisation)",
		Header: []string{"config", "avg speedup %", "accuracy %", "avg coverage %"},
	}
	for _, name := range []string{"way-on", "way-off"} {
		v := res[name]
		t.AddRow(name, v[0], v[1], v[2])
	}
	t.Notes = append(t.Notes,
		"way prediction reads one L1D way per probe (1 cycle) instead of the full set; without it probes are slower and costlier")
	return t, nil
}

func ablPAQLifetime(p Params) (*tabletext.Table, error) {
	cfgs := map[string]config.Core{"base": config.Baseline()}
	lifetimes := []int{2, 4, 6, 10}
	for _, n := range lifetimes {
		c := config.DLVP()
		c.PAQLifetime = n
		cfgs[fmt.Sprintf("life-%02d", n)] = c
	}
	res, err := summarize(p, cfgs)
	if err != nil {
		return nil, err
	}
	t := &tabletext.Table{
		Title:  "Ablation: PAQ entry lifetime N (Section 3.2.2)",
		Header: []string{"N (cycles)", "avg speedup %", "accuracy %", "avg coverage %"},
	}
	for _, n := range lifetimes {
		v := res[fmt.Sprintf("life-%02d", n)]
		t.AddRow(n, v[0], v[1], v[2])
	}
	t.Notes = append(t.Notes,
		"N bounds how long an unprobed prediction may wait for a load-store lane bubble before it is dropped")
	return t, nil
}

func ablHistoryLength(p Params) (*tabletext.Table, error) {
	cfgs := map[string]config.Core{"base": config.Baseline()}
	lengths := []uint8{4, 8, 16, 32}
	for _, n := range lengths {
		c := config.DLVP()
		c.VP.PAP.HistBits = n
		cfgs[fmt.Sprintf("hist-%02d", n)] = c
	}
	res, err := summarize(p, cfgs)
	if err != nil {
		return nil, err
	}
	t := &tabletext.Table{
		Title:  "Ablation: load-path history length (the paper uses 16 bits)",
		Header: []string{"bits", "avg speedup %", "accuracy %", "avg coverage %"},
	}
	for _, n := range lengths {
		v := res[fmt.Sprintf("hist-%02d", n)]
		t.AddRow(n, v[0], v[1], v[2])
	}
	t.Notes = append(t.Notes,
		"short histories cannot separate paths; very long histories dilute and fragment training")
	return t, nil
}
