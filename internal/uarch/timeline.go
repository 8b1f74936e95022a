package uarch

import (
	"dlvp/internal/metrics"
	"dlvp/internal/timeline"
)

// EnableTimeline attaches a flight recorder that samples the core's
// cumulative counters every intervalInstrs committed instructions into a
// ring of at most capacity samples (zeros select the timeline package
// defaults). Call before Run. The returned recorder may be read
// concurrently while the simulation runs (live streaming); the finished
// Timeline is available from Core.Timeline after Run.
//
// Sampling is off by default. On or off, the commit path pays one compare
// of the instruction count against the next boundary; the counter
// snapshot is taken only at interval boundaries. BenchmarkTimelineOverhead
// times that against BenchmarkTimelineBaseline, but the host's run-to-run
// spread is larger than the cost, which is therefore unmeasured.
func (c *Core) EnableTimeline(intervalInstrs uint64, capacity int) *timeline.Recorder {
	c.tl = timeline.NewRecorder(intervalInstrs, capacity, c.stats.Workload, c.stats.Scheme)
	c.tlNext = c.ctr[metrics.Instructions] + c.tl.IntervalInstrs()
	c.armBoundary()
	return c.tl
}

// Timeline returns the finished flight-recorder timeline (nil unless
// EnableTimeline was called; valid after Run).
func (c *Core) Timeline() *timeline.Timeline { return c.timeline }
