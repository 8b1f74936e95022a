package uarch

import (
	"dlvp/internal/isa"
	"dlvp/internal/metrics"
	"dlvp/internal/trace"
)

// fetchStage models the in-order front end: one fetch group per cycle (up
// to FetchWidth instructions, ending at a taken branch), branch prediction
// with speculative history updates, and — for DLVP — fetch-time address
// prediction of up to two loads per group keyed by the fetch group address.
func (c *Core) fetchStage() {
	if c.now < c.fetchStallUntil || c.haltSeen {
		return
	}
	groupStart := true
	var groupExtra int
	lphistAtGroup := uint64(0)
	if c.papPred != nil {
		lphistAtGroup = c.papPred.HistorySnapshot()
	}
	fga := uint64(0)
	loadsInGroup := 0
	w := &c.a.w

	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fetchSeq-c.renameSeq >= frontQCap || c.fetchSeq-c.headSeq >= windowCap-8 {
			return
		}
		rec := c.recAt(c.fetchSeq)
		if rec == nil {
			return // trace exhausted
		}
		if groupStart {
			fga = rec.PC
			groupExtra = c.hier.Fetch(c.now, fga)
			groupStart = false
		}

		seq := c.fetchSeq
		slot := seq & windowMask
		fl := fValid
		if rec.IsLoad() {
			fl |= fIsLoad
		} else if rec.IsStore() {
			fl |= fIsStore
		}
		w.flags[slot] = fl
		if bit := uint64(1) << (slot & 63); fl&fIsMem != 0 {
			c.a.memBits[slot>>6] |= bit
		} else {
			c.a.memBits[slot>>6] &^= bit
		}
		w.fetchCycle[slot] = c.now
		w.notBefore[slot] = 0
		c.a.waiters[slot] = c.a.waiters[slot][:0] // drop a squashed occupant's sleepers
		w.renameReady[slot] = c.now + uint64(c.cfg.FrontLatency) + uint64(groupExtra)

		// Register dependencies against the last in-flight writers. Unused
		// source slots are zeroed so the scheduler can scan all of them.
		w.deps[slot] = [trace.MaxSrcs]uint64{}
		for i := 0; i < int(rec.NSrc); i++ {
			w.deps[slot][i] = c.lastWriter[rec.Src[i]]
		}

		// Branch prediction.
		stall := false
		if rec.IsBranch() {
			stall = c.fetchBranch(seq, rec)
		}

		// Load handling: MDP consultation, load-path history, address and
		// value prediction.
		if rec.IsLoad() {
			if c.mdp.ShouldWait(rec.PC) || rec.IsOrdered() {
				w.flags[slot] |= fMdpWait
			}
			c.fetchAddressPrediction(seq, rec, fga, lphistAtGroup, loadsInGroup)
			loadsInGroup++
			if c.papPred != nil {
				c.papPred.PushLoad(rec.PC)
			}
		}
		if c.vtPred != nil {
			c.fetchVTAGE(seq, rec)
		}
		if c.dvPred != nil {
			c.fetchDVTAGE(seq, rec)
		}
		if fl&fIsMem != 0 {
			c.a.lsq.push(seq, fl&fIsStore != 0, rec.Addr, rec.Bytes)
		}

		// Update the in-flight writer map and take recovery snapshots.
		nd := int(rec.NDst)
		for j := 0; j < nd; j++ {
			c.lastWriter[rec.DestReg(j, c.ovf)] = seq + 1
		}
		w.ghistAfter[slot] = c.ghist.Value()
		if rec.IsCondBranch() {
			// The post-instruction snapshot must hold the *actual* outcome
			// so that squash recovery repairs a wrongly speculated bit.
			w.ghistAfter[slot] = w.ghistBefore[slot]<<1 | b2u(rec.Taken)
		}
		lph := uint64(0)
		if c.papPred != nil {
			lph = c.papPred.HistorySnapshot()
		}
		w.lphistAfter[slot] = lph

		c.fetchSeq++
		if rec.Op == isa.HALT {
			c.haltSeen = true
			c.haltSeq = seq
			return
		}
		if stall {
			// Mispredicted branch: the front end cannot follow the wrong
			// path in a trace-driven model; stall until resolution.
			c.fetchStallUntil = ^uint64(0) >> 1
			return
		}
		if rec.IsBranch() && rec.Taken {
			// Correctly predicted taken branch ends the fetch group.
			return
		}
	}
}

// fetchBranch predicts the branch, updates speculative state, and reports
// whether the front end must stall (misprediction).
func (c *Core) fetchBranch(seq uint64, rec *trace.Rec) bool {
	w := &c.a.w
	slot := seq & windowMask
	before := c.ghist.Value()
	w.ghistBefore[slot] = before
	mispredict := false
	switch rec.Op.Class() {
	case isa.ClassBr:
		if rec.IsCondBranch() {
			pred := c.tage.PredictLk(&c.cold(seq).tageLk, rec.PC, before)
			mispredict = pred != rec.Taken
			// Speculative history receives the predicted bit; recovery later
			// repairs it with the actual outcome (see fetchStage).
			c.ghist.Push(pred)
		}
		// Unconditional B: target known at decode, no misprediction.
	case isa.ClassCall:
		c.ras.Push(rec.PC + 4)
		c.cold(seq).rasAfter = c.ras.Snapshot()
		w.flags[slot] |= fHasRasAfter
	case isa.ClassRet:
		tgt, ok := c.ras.Pop()
		c.cold(seq).rasAfter = c.ras.Snapshot()
		w.flags[slot] |= fHasRasAfter
		mispredict = !ok || tgt != rec.Target()
	case isa.ClassJmp:
		tgt, ok := c.ittage.Predict(rec.PC, before)
		mispredict = !ok || tgt != rec.Target()
	}
	if mispredict {
		w.flags[slot] |= fBrMispredict
	}
	return mispredict
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fetchAddressPrediction probes the configured address predictor for a load
// at fetch (DLVP step 1) and enqueues a confident prediction into the PAQ
// (step 2). Only the first two loads of a fetch group are predicted, keyed
// by the fetch group address (the paper's FGA proxy); memory-ordering
// loads and LSCD-blacklisted loads are excluded.
func (c *Core) fetchAddressPrediction(seq uint64, rec *trace.Rec, fga, lphist uint64, loadIdx int) {
	if !c.usesAddressPrediction() {
		return
	}
	if rec.IsOrdered() {
		return
	}
	if loadIdx >= 2 {
		c.ctr[metrics.GroupSlotMissed]++
		return
	}
	w := &c.a.w
	slot := seq & windowMask
	if c.lscd != nil && c.lscd.Contains(rec.PC) {
		w.flags[slot] |= fLscdSkip
		return
	}
	cd := c.cold(seq)
	var addr uint64
	var way int8 = -1
	confident := false
	switch {
	case c.papPred != nil:
		// The paper indexes with the fetch group address as a proxy for the
		// load PC (their fetch groups are aligned, making the FGA stable per
		// static load). This front end forms groups at arbitrary boundaries,
		// so the load PC itself is the faithful equivalent of that stable
		// key; the two-loads-per-group limit still applies.
		_ = fga
		cd.papLk = c.papPred.LookupWith(rec.PC, lphist)
		w.flags[slot] |= fPapLkValid
		addr, way, confident = cd.papLk.Addr, cd.papLk.Way, cd.papLk.Confident
	case c.capPred != nil:
		cd.capLk = c.capPred.Lookup(rec.PC)
		w.flags[slot] |= fCapLkValid
		addr, confident = cd.capLk.Addr, cd.capLk.Confident
	}
	if !confident {
		return
	}
	if c.paqLen() >= c.cfg.PAQEntries {
		c.ctr[metrics.PAQFull]++
		return // PAQ full: prediction lost
	}
	*c.paqAt(c.paqLen()) = paqEntry{
		seq: seq, addr: addr, way: way,
		// One cycle for prediction, one to ship to the back end.
		allocated: c.now + 2,
	}
	c.paqTail++
	w.flags[slot] |= fPaqIssued
	c.ctr[metrics.PAQAllocated]++
	if c.tl != nil && c.paqLen() > c.tlPAQPeak {
		c.tlPAQPeak = c.paqLen()
	}
}

// fetchDVTAGE makes fetch-time D-VTAGE predictions, reusing the VTAGE
// per-destination plumbing (vtVals/vtValid feed the same VPE install path).
func (c *Core) fetchDVTAGE(seq uint64, rec *trace.Rec) {
	cd := c.cold(seq)
	cd.dvLks = cd.dvLks[:0]
	nd := int(rec.NDst)
	if nd > trace.MaxDests {
		nd = trace.MaxDests
	}
	if !c.dvPred.Eligible(rec.Op, nd) {
		return
	}
	hist := c.ghist.Value()
	for j := 0; j < nd; j++ {
		lk := c.dvPred.PredictWith(rec.PC, j, hist)
		cd.dvLks = append(cd.dvLks, lk)
		cd.vtValid[j] = lk.Confident
		cd.vtVals[j] = lk.Value
		if lk.Confident {
			c.a.w.flags[seq&windowMask] |= fVtAny
		}
	}
}

// fetchVTAGE makes fetch-time VTAGE predictions for every destination of an
// eligible instruction, using the branch history at fetch.
func (c *Core) fetchVTAGE(seq uint64, rec *trace.Rec) {
	cd := c.cold(seq)
	cd.vtLks = cd.vtLks[:0]
	nd := int(rec.NDst)
	if nd > trace.MaxDests {
		nd = trace.MaxDests
	}
	if !c.vtPred.Eligible(rec.Op, nd) {
		return
	}
	hist := c.ghist.Value()
	for j := 0; j < nd; j++ {
		lk := c.vtPred.PredictWith(rec.PC, j, hist)
		cd.vtLks = append(cd.vtLks, lk)
		cd.vtValid[j] = lk.Confident
		cd.vtVals[j] = lk.Value
		if lk.Confident {
			c.a.w.flags[seq&windowMask] |= fVtAny
		}
	}
}
