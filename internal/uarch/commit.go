package uarch

import (
	"dlvp/internal/config"
	"dlvp/internal/isa"
	"dlvp/internal/metrics"
	"dlvp/internal/predictor/tournament"
	"dlvp/internal/trace"
)

// commitStage retires up to CommitWidth completed instructions per cycle in
// program order. Stores write the committed-memory image and the data cache
// here (through the store buffer); value-prediction coverage and accuracy
// are accounted on the committed path only, matching how the paper counts
// dynamic loads.
func (c *Core) commitStage() {
	w := &c.a.w
	for n := 0; n < c.cfg.CommitWidth; n++ {
		if c.headSeq >= c.fetchSeq {
			return
		}
		seq := c.headSeq
		slot := seq & windowMask
		f := w.flags[slot]
		if f&fValid == 0 {
			return
		}
		if f&fRenamed == 0 || f&fCompleted == 0 || w.execDone[slot] > c.now {
			return
		}
		rec := c.rec(seq)

		c.captureStageTrace(seq)
		c.ctr[metrics.Instructions]++
		switch {
		case rec.IsLoad():
			c.ctr[metrics.Loads]++
			c.a.lsq.pop(false)
		case rec.IsStore():
			c.ctr[metrics.Stores]++
			c.a.lsq.pop(true)
			c.commitStore(rec)
		}
		c.accountPrediction(seq)

		// Architectural history state advances with the committed stream.
		c.committedGhist = w.ghistAfter[slot]
		c.committedLphist = w.lphistAfter[slot]
		if f&fHasRasAfter != 0 {
			c.rasBase = c.cold(seq).rasAfter
		}

		c.freeRegs += int(rec.NDst)
		if rec.IsLoad() {
			c.ldqCount--
		}
		if rec.IsStore() {
			c.stqCount--
		}
		w.flags[slot] &^= fValid
		c.headSeq++
		// Sample-window and flight-recorder boundaries, after this
		// instruction's stats landed so a boundary snapshot includes it:
		// one compare per commit.
		if c.ctr[metrics.Instructions] == c.nextBoundary {
			c.crossBoundary()
		}
	}
}

// crossBoundary takes one counter snapshot for every boundary falling at
// the current instruction count — the warm-up end, the measured-region
// end (which requests the stop) and a flight-recorder interval — then
// arms the next boundary.
func (c *Core) crossBoundary() {
	n := c.ctr[metrics.Instructions]
	cum := c.counters()
	switch n {
	case c.wmEnd:
		c.wmSnap = cum
	case c.mdEnd:
		c.mdSnap = cum
		c.stopReq = true
	}
	if n == c.tlNext {
		c.tl.Sample(cum, c.tlPAQPeak)
		c.tlPAQPeak = c.paqLen()
		c.tlNext += c.tl.IntervalInstrs()
	}
	c.armBoundary()
}

// armBoundary sets nextBoundary to the nearest sample-window or
// flight-recorder boundary past the current instruction count (0 when
// none is pending; unset boundaries are 0 too).
func (c *Core) armBoundary() {
	n := c.ctr[metrics.Instructions]
	c.nextBoundary = 0
	for _, b := range [...]uint64{c.wmEnd, c.mdEnd, c.tlNext} {
		if b > n && (c.nextBoundary == 0 || b < c.nextBoundary) {
			c.nextBoundary = b
		}
	}
}

// commitStore applies a committing store to the committed-memory image (the
// state DLVP probes observe) and to the cache hierarchy.
func (c *Core) commitStore(rec *trace.Rec) {
	switch rec.Op {
	case isa.STP:
		c.cmem.Write(rec.Addr, rec.Vals[0], 8)
		c.cmem.Write(rec.Addr+8, rec.Vals[1], 8)
	default: // STR, STRPOST, STLR
		c.cmem.Write(rec.Addr, rec.Vals[0], int(rec.Bytes))
	}
	c.hier.Store(c.now, rec.Addr)
}

// accountPrediction tallies coverage/accuracy at commit.
func (c *Core) accountPrediction(seq uint64) {
	rec := c.rec(seq)
	if !c.eligibleForStats(rec.Op, int(rec.NDst)) {
		return
	}
	f := c.a.w.flags[seq&windowMask]
	cd := c.cold(seq)
	predicted := f&(fVpMade|fVpOracleDropped) != 0
	correct := false
	if f&fVpMade != 0 {
		correct = true
		for j := 0; j < int(rec.NDst); j++ {
			if cd.vpPerDest[j] && cd.vpVals[j] != rec.DestValue(j, c.ovf) {
				correct = false
				break
			}
		}
	}
	c.ctr[metrics.VPEligible]++
	if predicted {
		c.ctr[metrics.VPPredicted]++
		if correct {
			c.ctr[metrics.VPCorrect]++
		}
	}
	// Site attribution rides the same outcome so per-site sums reconcile
	// with the aggregate exactly. One nil check when profiling is off.
	if c.sp != nil {
		c.spRecord(seq, predicted, correct)
	}
	if f&fVpMade != 0 {
		switch cd.vpSource {
		case tournament.SideDLVP:
			c.ctr[metrics.TournamentDLVP]++
		case tournament.SideVTAGE:
			c.ctr[metrics.TournamentVTAGE]++
		}
	}
}

// eligibleForStats defines the coverage denominator: dynamic loads for the
// address-prediction schemes and loads-only VTAGE; every value-producing
// instruction for all-instructions VTAGE.
func (c *Core) eligibleForStats(op isa.Op, nDests int) bool {
	if (c.cfg.VP.Scheme == config.VPVTAGE && !c.cfg.VP.VTAGE.LoadsOnly) ||
		(c.cfg.VP.Scheme == config.VPDVTAGE && !c.cfg.VP.DVTAGE.LoadsOnly) {
		return nDests > 0 && !op.IsStore() && !op.IsOrdered() &&
			(!op.IsBranch() || op == isa.BL)
	}
	return op.IsLoad()
}
