package uarch

import "dlvp/internal/metrics"

// scheduleFlush records a squash request; when several trigger in one cycle
// the oldest wins (it supersedes any younger squash).
func (c *Core) scheduleFlush(req flushReq) {
	if !c.flushPending || req.refetchAt < c.pendingFlush.refetchAt {
		c.pendingFlush = req
		c.flushPending = true
	}
}

// applyFlush performs the squash at the end of the cycle: it invalidates
// every instruction younger than the flush point, rewinds the fetch and
// rename cursors, rebuilds occupancy and the register writer map from the
// survivors, and restores the speculative state — global branch history,
// load-path history (PAP's single-register restore, Section 2.2), the RAS,
// and the PAQ.
func (c *Core) applyFlush() {
	if !c.flushPending {
		return
	}
	req := c.pendingFlush
	c.flushPending = false
	switch req.kind {
	case flushBranch:
		c.ctr[metrics.BranchFlushes]++
	case flushValue:
		c.ctr[metrics.ValueFlushes]++
	case flushOrder:
		c.ctr[metrics.OrderFlushes]++
	}

	w := &c.a.w
	refetch := req.refetchAt
	if refetch < c.headSeq {
		refetch = c.headSeq
	}
	for seq := refetch; seq < c.fetchSeq; seq++ {
		w.flags[seq&windowMask] &^= fValid
	}
	c.fetchSeq = refetch
	if c.renameSeq > refetch {
		c.renameSeq = refetch
	}
	if c.haltSeen && c.haltSeq >= refetch {
		c.haltSeen = false
	}
	c.a.lsq.squashFrom(refetch)

	// Rebuild occupancy, scheduler contents, and the writer map from the
	// surviving window. The completion wheel is rebuilt too, in sequence
	// order, which is the order the old in-flight list rebuild produced.
	c.ldqCount, c.stqCount, c.pvtCount = 0, 0, 0
	used := 0
	c.a.iqBits = [windowWords]uint64{}
	c.iqCount = 0
	for i := range c.a.done {
		c.a.done[i] = c.a.done[i][:0]
	}
	for r := range c.lastWriter {
		c.lastWriter[r] = 0
	}
	stallForBranch := false
	for seq := c.headSeq; seq < c.fetchSeq; seq++ {
		slot := seq & windowMask
		f := w.flags[slot]
		if f&fValid == 0 {
			continue
		}
		rec := c.rec(seq)
		if f&fRenamed != 0 {
			used += int(rec.NDst)
			if rec.IsLoad() {
				c.ldqCount++
			}
			if rec.IsStore() {
				c.stqCount++
			}
			if f&fIssued == 0 {
				c.a.iqBits[slot>>6] |= 1 << (slot & 63)
				c.iqCount++
			} else if f&fCompleted == 0 {
				c.pushDone(seq, w.issueCycle[slot])
			}
			if f&fVpMade != 0 && f&fCompleted == 0 {
				c.pvtCount += c.cold(seq).vpNumDests
			}
		}
		for j := 0; j < int(rec.NDst); j++ {
			c.lastWriter[rec.DestReg(j, c.ovf)] = seq + 1
		}
		if f&fBrMispredict != 0 && f&fCompleted == 0 {
			stallForBranch = true
		}
	}
	c.freeRegs = c.cfg.PhysRegs - 64 - used

	// Speculative history restoration.
	if req.seq >= c.headSeq && c.live(req.seq) {
		slot := req.seq & windowMask
		c.ghist.Restore(w.ghistAfter[slot])
		if c.papPred != nil {
			c.papPred.RestoreHistory(w.lphistAfter[slot])
		}
	} else {
		c.ghist.Restore(c.committedGhist)
		if c.papPred != nil {
			c.papPred.RestoreHistory(c.committedLphist)
		}
	}

	// RAS: youngest surviving call/return snapshot, else the committed base.
	restored := false
	for seq := c.fetchSeq; seq > c.headSeq; {
		seq--
		f := w.flags[seq&windowMask]
		if f&fValid != 0 && f&fHasRasAfter != 0 {
			c.ras.Restore(c.cold(seq).rasAfter)
			restored = true
			break
		}
	}
	if !restored {
		c.ras.Restore(c.rasBase)
	}

	// Squashed PAQ entries: compact the ring in place, preserving order.
	n := c.paqLen()
	kept := 0
	for i := 0; i < n; i++ {
		pe := *c.paqAt(i)
		if pe.seq < refetch {
			*c.paqAt(kept) = pe
			kept++
		}
	}
	c.paqTail = c.paqHead + uint32(kept)

	c.fetchStallUntil = req.resume
	if stallForBranch {
		c.fetchStallUntil = ^uint64(0) >> 1
	}
	c.eventWake = true // survivors' sleep state is stale; re-examine everyone
}
