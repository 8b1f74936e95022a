package experiments

import "dlvp/internal/metrics"

// grid is one matrix's results: the pool's workloads in name order × the
// named configurations. Its methods are the pool statistics the figures
// print, each defined once: a sum runs over the pool in name order, and a
// mean divides that sum once by the pool size.
type grid struct {
	names []string // the pool's workloads, in name order
	cells map[cell]metrics.RunStats
}

// cell names one (workload, configuration) result of a grid.
type cell struct{ workload, scheme string }

// at returns workload w's result under the named configuration.
func (g grid) at(w, scheme string) metrics.RunStats { return g.cells[cell{w, scheme}] }

// speedup returns w's speedup (%) under scheme over its "base" run.
func (g grid) speedup(w, scheme string) float64 {
	return metrics.SpeedupPct(g.at(w, "base"), g.at(w, scheme))
}

// sum adds f over the pool.
func (g grid) sum(f func(w string) float64) float64 {
	var s float64
	for _, w := range g.names {
		s += f(w)
	}
	return s
}

// mean is f's arithmetic mean over the pool.
func (g grid) mean(f func(w string) float64) float64 {
	return g.sum(f) / float64(len(g.names))
}

// meanSpeedup is scheme's mean speedup (%) over "base".
func (g grid) meanSpeedup(scheme string) float64 {
	return g.mean(func(w string) float64 { return g.speedup(w, scheme) })
}

// meanCoverage is scheme's mean coverage (%).
func (g grid) meanCoverage(scheme string) float64 {
	return g.mean(func(w string) float64 { return g.at(w, scheme).VP.Coverage() })
}

// accuracy is scheme's pooled accuracy (%): its correct predictions over
// its predictions, both summed over the pool (0 when it predicted none).
func (g grid) accuracy(scheme string) float64 {
	predicted := g.total(scheme, func(r metrics.RunStats) uint64 { return r.VP.Predicted })
	if predicted == 0 {
		return 0
	}
	return 100 * float64(g.total(scheme, func(r metrics.RunStats) uint64 { return r.VP.Correct })) / float64(predicted)
}

// total sums counter c of scheme's runs over the pool.
func (g grid) total(scheme string, c func(metrics.RunStats) uint64) uint64 {
	var s uint64
	for _, w := range g.names {
		s += c(g.at(w, scheme))
	}
	return s
}

// best returns scheme's largest speedup (%) over "base" and its workload,
// or 0 and "" when no workload speeds up.
func (g grid) best(scheme string) (float64, string) {
	var top float64
	var name string
	for _, w := range g.names {
		if sp := g.speedup(w, scheme); sp > top {
			top, name = sp, w
		}
	}
	return top, name
}
