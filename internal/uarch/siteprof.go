package uarch

import (
	"dlvp/internal/metrics"
	"dlvp/internal/predictor/tournament"
	"dlvp/internal/siteprof"
)

// EnableSiteProfile attaches a per-load-site misprediction attribution
// collector tracking at most maxSites static load PCs (0 selects the
// siteprof package default). Call before Run. The returned collector may
// be read concurrently while the simulation runs (Snapshot); the finished
// profile is available from Core.SiteProfile after Run.
//
// Profiling is off by default. When off, the commit path pays one nil
// check per eligible instruction; when on, each committed eligible load
// adds a classification (a handful of field compares) and one counter
// update behind a direct-mapped PC cache (BenchmarkSiteprofOverhead holds
// the slowdown under 3%).
//
// Under a sample window (SetSampleWindow), warm-up commits are excluded so
// the profile covers exactly the measured region and per-site sums stay
// reconcilable with MeasuredCounters.
func (c *Core) EnableSiteProfile(maxSites int) *siteprof.Collector {
	c.sp = siteprof.NewCollector(maxSites, c.stats.Workload, c.stats.Scheme)
	return c.sp
}

// SiteProfile returns the finished per-site attribution profile (nil
// unless EnableSiteProfile was called; valid after Run).
func (c *Core) SiteProfile() *siteprof.Profile { return c.siteProfile }

// spRecord classifies one committed statistics-eligible instruction and
// feeds it to the collector. Called from accountPrediction behind a nil
// check, with the (predicted, correct) outcome it already computed, so the
// per-site Eligible/Predicted/Correct partition matches the aggregate VP
// counters by construction.
func (c *Core) spRecord(seq uint64, predicted, correct bool) {
	if !c.measuring(c.ctr[metrics.Instructions]) {
		return // still warming up, or the bounded window already closed
	}
	f := c.a.w.flags[seq&windowMask]
	ev := siteprof.Event{Cause: c.spCause(seq, predicted, correct)}
	if f&fProbeDone != 0 {
		ev.Probed = true
		ev.ProbeHit = f&fProbeHit != 0
		ev.ProbeTLB = f&fProbeTLB != 0
	}
	if f&fVpMade != 0 && !correct {
		if c.cfg.VP.SelectiveReplay {
			ev.Replay = true
		} else {
			// Estimated recovery cost of this mispredict's flush: the
			// value-check penalty plus refilling the front of the pipe.
			ev.FlushCycles = uint64(c.cfg.ValueCheckPenalty) + uint64(c.cfg.FrontLatency)
		}
	}
	c.sp.Record(c.rec(seq).PC, ev)
}

// spCause derives the attribution cause from the evidence already on the
// window entry: the fetch-time predictor lookups, the LSCD decision, the
// probe outcome, the train-time APT outcome code, and the committed
// record's actual address.
func (c *Core) spCause(seq uint64, predicted, correct bool) siteprof.Cause {
	if correct {
		return siteprof.CauseCorrect
	}
	f := c.a.w.flags[seq&windowMask]
	cd := c.cold(seq)
	if predicted {
		// A prediction was made (or oracle-suppressed) and was wrong: why?
		if cd.vpSource == tournament.SideVTAGE {
			return siteprof.CauseValueWrong // value-side miss, no address context
		}
		var predictedAddr uint64
		have := false
		switch {
		case f&fPapLkValid != 0:
			predictedAddr, have = cd.papLk.Addr, true
		case f&fCapLkValid != 0:
			predictedAddr, have = cd.capLk.Addr, true
		}
		if !have {
			return siteprof.CauseValueWrong
		}
		if predictedAddr == c.rec(seq).Addr {
			// Right address, wrong value: a store rewrote the location
			// between the probe and the load — the paper's Challenge #1.
			return siteprof.CauseStoreConflict
		}
		if f&fPapTrainValid != 0 && cd.papTrain.Alias() {
			// Training found the APT slot reallocated between lookup and
			// train: the predicted address belonged to an aliasing site.
			return siteprof.CauseTagAlias
		}
		return siteprof.CauseAddrMispredict
	}
	// No prediction was made: walk the pipeline backwards to the first
	// stage that dropped it.
	switch {
	case f&fLscdSkip != 0:
		return siteprof.CauseLSCDFiltered
	case f&fPapLkValid != 0:
		if !cd.papLk.Hit {
			return siteprof.CauseAPTMiss
		}
		if !cd.papLk.Confident {
			return siteprof.CauseConfidenceDropped
		}
		// Confident at fetch but nothing installed: lost to PAQ overflow,
		// lifetime expiry, a late or missing probe, the install budget, or
		// a full PVT.
		return siteprof.CausePAQDrop
	case f&fCapLkValid != 0:
		if !cd.capLk.LBHit || !cd.capLk.LinkHit {
			return siteprof.CauseAPTMiss
		}
		if !cd.capLk.Confident {
			return siteprof.CauseConfidenceDropped
		}
		return siteprof.CausePAQDrop
	default:
		return siteprof.CauseUnpredicted
	}
}

// spFinish freezes the collector into the run's profile, scoped to the
// measured region when a sample window was armed and completed.
func (c *Core) spFinish() {
	instrs := c.ctr[metrics.Instructions]
	if meas, ok := c.MeasuredCounters(); ok {
		instrs = meas[metrics.Instructions]
	}
	c.siteProfile = c.sp.Finish(instrs)
}
