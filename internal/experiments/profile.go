package experiments

import (
	"fmt"

	"dlvp/internal/tabletext"
	"dlvp/internal/trace"
	"dlvp/internal/workloads"
)

// conflictTally keeps each workload's Figure 1 conflict profile, in pool
// order.
type conflictTally struct {
	names []string
	stats []trace.ConflictStats
}

func (c *conflictTally) open(w workloads.Workload) ([]observer, func()) {
	prof := trace.NewConflictProfiler(trace.ConflictWindow)
	return []observer{prof}, func() {
		c.names = append(c.names, w.Name)
		c.stats = append(c.stats, prof.Stats())
	}
}

// sums returns the pool totals of the per-workload committed, in-flight and
// value-changed percentages.
func (c *conflictTally) sums() (committed, inFlight, changed float64) {
	for _, s := range c.stats {
		committed += s.CommittedPct
		inFlight += s.InFlightPct
		changed += s.ChangedPct
	}
	return committed, inFlight, changed
}

// committedShare returns committed stores' share of all conflicts (%).
func (c *conflictTally) committedShare() float64 {
	sumC, sumI, _ := c.sums()
	if sumC+sumI == 0 {
		return 0
	}
	return 100 * sumC / (sumC + sumI)
}

// repeatTally keeps each workload's Figure 2 repeatability profile.
type repeatTally struct{ stats []trace.RepeatStats }

func (r *repeatTally) open(workloads.Workload) ([]observer, func()) {
	prof := trace.NewRepeatProfiler()
	return []observer{prof}, func() { r.stats = append(r.stats, prof.Stats()) }
}

// Fig1 reproduces Figure 1: the fraction of dynamic loads that consume a
// value produced by a store that occurred since the prior dynamic instance
// of the same static load, split by whether that store would have committed
// by the time the load is fetched.
func Fig1(p Params) ([]*tabletext.Table, error) {
	var c conflictTally
	if err := streamPool(p, c.open); err != nil {
		return nil, err
	}
	t := &tabletext.Table{
		Title:  "Figure 1: dynamic loads whose value was produced since their prior instance (%)",
		Header: []string{"workload", "Ld->St->Ld (committed)", "Ld->inflight-St->Ld", "total", "value changed"},
	}
	for i, s := range c.stats {
		t.AddRow(c.names[i], s.CommittedPct, s.InFlightPct, s.CommittedPct+s.InFlightPct, s.ChangedPct)
	}
	sumC, sumI, sumV := c.sums()
	n := float64(len(c.stats))
	t.AddRow("AVERAGE", sumC/n, sumI/n, (sumC+sumI)/n, sumV/n)
	t.Notes = append(t.Notes,
		fmt.Sprintf("committed share of all conflicts: %.1f%% (paper: ~67%% are with previously committed stores)", c.committedShare()),
		fmt.Sprintf("in-flight horizon: %d instructions (typical fetch-to-commit distance; see trace.ConflictWindow)", trace.ConflictWindow))
	return []*tabletext.Table{t}, nil
}

// Fig2 reproduces Figure 2: the breakdown of dynamic loads by how often the
// observed address (value) repeats for that static load, averaged across
// workloads, plus the cumulative curves behind the paper's "91% of loads
// repeat an address >= 8 times vs 80% repeating a value >= 64 times".
func Fig2(p Params) ([]*tabletext.Table, error) {
	var r repeatTally
	if err := streamPool(p, r.open); err != nil {
		return nil, err
	}
	m := trace.MeanRepeatStats(r.stats)

	t := &tabletext.Table{
		Title:  "Figure 2: breakdown of dynamic loads by repeat count (mean across workloads, %)",
		Header: []string{"repeats", "addresses", "values", "addr cum >=", "value cum >="},
	}
	for i, b := range trace.RepeatBuckets {
		label := fmt.Sprint(b)
		if i == len(trace.RepeatBuckets)-1 {
			label += "+"
		}
		t.AddRow(label, m.AddrPct[i], m.ValuePct[i], m.AddrCumPct[i], m.ValueCumPct[i])
	}
	// The paper's two headline points: addresses repeating >= 8, values >= 64.
	idx8, idx64 := 3, 6
	t.Notes = append(t.Notes,
		fmt.Sprintf("loads with addresses repeating >= 8 times: %.1f%% (paper: 91%%)", m.AddrCumPct[idx8]),
		fmt.Sprintf("loads with values repeating >= 64 times: %.1f%% (paper: 80%%)", m.ValueCumPct[idx64]),
	)
	return []*tabletext.Table{t}, nil
}
