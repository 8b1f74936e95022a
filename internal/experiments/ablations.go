package experiments

import (
	"strconv"

	"dlvp/internal/config"
	"dlvp/internal/tabletext"
)

// Ablations regenerates the design-choice studies the paper refers to but
// does not tabulate ("our experiments, not included due to limited space,
// show that Policy-2 is superior", the 4-entry LSCD sizing, way-predicted
// probing, the PAQ lifetime N, and the 16-bit load-path history length).
// It is registered as the extension experiment id "ablations".
func Ablations(p Params) ([]*tabletext.Table, error) {
	var out []*tabletext.Table
	for _, abl := range []ablation{
		ablAllocPolicy(),
		ablLSCD(),
		ablWayPrediction(),
		ablPAQLifetime(),
		ablHistoryLength(),
	} {
		t, err := abl.run(p)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ablation is one design-choice study: a DLVP knob set per arm, each arm
// one row of mean speedup over the baseline, pooled accuracy and mean
// coverage.
type ablation struct {
	title string
	knob  string // the first column's header
	note  string
	arms  []arm
}

// arm is one setting of an ablation's knob.
type arm struct {
	label any // the row's label: the knob's value
	cfg   config.Core
}

// run simulates every arm and the baseline over the pool and renders the
// table.
func (a ablation) run(p Params) (*tabletext.Table, error) {
	cfgs := map[string]config.Core{"base": config.Baseline()}
	for i, arm := range a.arms {
		cfgs[strconv.Itoa(i)] = arm.cfg
	}
	g, err := runMatrix(p, cfgs)
	if err != nil {
		return nil, err
	}
	t := &tabletext.Table{
		Title:  a.title,
		Header: []string{a.knob, "avg speedup %", "accuracy %", "avg coverage %"},
		Notes:  []string{a.note},
	}
	for i, arm := range a.arms {
		s := strconv.Itoa(i)
		t.AddRow(arm.label, g.meanSpeedup(s), g.accuracy(s), g.meanCoverage(s))
	}
	return t, nil
}

func ablAllocPolicy() ablation {
	p1 := config.DLVP()
	p1.VP.PAP.AllocPolicy1 = true
	return ablation{
		title: "Ablation: APT allocation policy (Section 3.1.2)",
		knob:  "policy",
		note:  "paper: Policy-2 (allocate only over zero-confidence victims) is superior — confident entries survive eviction pressure",
		arms:  []arm{{"policy-1", p1}, {"policy-2", config.DLVP()}},
	}
}

func ablLSCD() ablation {
	a := ablation{
		title: "Ablation: LSCD size (Section 3.2.2; the paper uses 4 entries)",
		knob:  "entries",
		note:  "0 entries: in-flight-store conflicts flush unchecked; larger filters trade coverage for accuracy",
	}
	for _, n := range []int{0, 2, 4, 8, 16} {
		c := config.DLVP()
		c.VP.LSCDEntries = n
		a.arms = append(a.arms, arm{n, c})
	}
	return a
}

func ablWayPrediction() ablation {
	off := config.DLVP()
	off.VP.PAP.WayPredict = false
	return ablation{
		title: "Ablation: probe way prediction (the paper's power optimisation)",
		knob:  "config",
		note:  "way prediction reads one L1D way per probe (1 cycle) instead of the full set; without it probes are slower and costlier",
		arms:  []arm{{"way-on", config.DLVP()}, {"way-off", off}},
	}
}

func ablPAQLifetime() ablation {
	a := ablation{
		title: "Ablation: PAQ entry lifetime N (Section 3.2.2)",
		knob:  "N (cycles)",
		note:  "N bounds how long an unprobed prediction may wait for a load-store lane bubble before it is dropped",
	}
	for _, n := range []int{2, 4, 6, 10} {
		c := config.DLVP()
		c.PAQLifetime = n
		a.arms = append(a.arms, arm{n, c})
	}
	return a
}

func ablHistoryLength() ablation {
	a := ablation{
		title: "Ablation: load-path history length (the paper uses 16 bits)",
		knob:  "bits",
		note:  "short histories cannot separate paths; very long histories dilute and fragment training",
	}
	for _, n := range []uint8{4, 8, 16, 32} {
		c := config.DLVP()
		c.VP.PAP.HistBits = n
		a.arms = append(a.arms, arm{n, c})
	}
	return a
}
