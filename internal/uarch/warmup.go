package uarch

import "dlvp/internal/metrics"

// SetSampleWindow marks the first warmup committed instructions of the
// run as warm-up and the following measured committed instructions as
// the measured region. The core simulates the warm-up normally —
// predictors, caches, the branch history and the LSCD all train — but
// its statistics are excluded from MeasuredCounters. The exclusion
// subtracts cumulative counter snapshots taken at both region boundaries,
// so measured counters are exactly what a flight-recorder interval over
// the measured region would report and sums across sampling intervals
// stay reconcilable.
//
// With measured > 0 the window is bounded: at the commit that closes
// it the core snapshots the counters and stops simulating, so the
// end-of-stream pipeline drain is neither paid for nor measured —
// short sampled intervals would otherwise amortise a full drain into
// every window and bias IPC low. Feed the core a stream extending
// beyond the window (the sampling driver adds slack) so the closing
// commit happens at full pipeline occupancy. measured == 0 leaves the
// window open to the end of the stream, drain included.
//
// Call before Run. With warmup == 0 the measured region starts
// immediately. When the stream ends before the window completes,
// MeasuredCounters reports that via its second return value.
func (c *Core) SetSampleWindow(warmup, measured uint64) {
	c.wmEnd = c.ctr[metrics.Instructions] + warmup
	c.mdEnd = 0
	if measured > 0 {
		c.mdEnd = c.wmEnd + measured
	}
	c.armBoundary()
}

// measuring reports whether the n-th committed instruction falls in the
// measured region: past the warm-up and, for a bounded window, not past
// its closing commit (the closing cycle can retire a few more
// instructions before Run observes the stop request). Without a window
// every instruction is measured.
func (c *Core) measuring(n uint64) bool {
	return n > c.wmEnd && (c.mdEnd == 0 || n <= c.mdEnd)
}

// MeasuredCounters returns the counter deltas accumulated over the
// measured region (valid after Run) and whether the window actually
// completed: the warm-up boundary was reached and, for a bounded
// window, the closing commit happened before the stream ended. Without
// SetSampleWindow it returns the whole run's counters.
func (c *Core) MeasuredCounters() (metrics.Counters, bool) {
	n := c.ctr[metrics.Instructions]
	switch {
	case n < c.wmEnd || n < c.mdEnd:
		return metrics.Counters{}, false
	case c.mdEnd > 0:
		return c.mdSnap.Sub(c.wmSnap), true
	}
	return c.counters().Sub(c.wmSnap), true
}
