package uarch

import (
	"dlvp/internal/isa"
	"dlvp/internal/metrics"
	"dlvp/internal/trace"
)

// executeStage retires functional-unit work: instructions whose completion
// time has arrived resolve branches (training the branch predictors and
// releasing a stalled front end), validate value predictions (flushing on a
// mismatch, per the paper's flush-based recovery), and train the address
// and value predictors — APT training happens "when the load executes"
// (Section 3.1.2).
//
// In-flight instructions live in the completion wheel, so each cycle drains
// only the bucket for this cycle rather than walking everything issued. The
// bucket's push order is issue order — the order side effects (predictor
// training, flush scheduling) happen in, part of the model's definition.
// Entries whose issue was undone (squash, selective replay) fail the stamp
// or flag checks and fall out here.
func (c *Core) executeStage() {
	w := &c.a.w
	bkt := &c.a.done[c.now&doneWheelMask]
	if len(*bkt) == 0 {
		return
	}
	ents := *bkt
	*bkt = ents[:0] // this cycle's pushes all target future buckets
	for i := 0; i < len(ents); i++ {
		seq := ents[i].seq
		if !c.live(seq) {
			continue
		}
		slot := seq & windowMask
		if w.issueCycle[slot] != ents[i].issuedAt {
			continue // a replayed instance re-issued; its new entry is elsewhere
		}
		f := w.flags[slot]
		if f&fIssued == 0 || f&fCompleted != 0 {
			continue
		}
		if w.execDone[slot] > c.now {
			// Only possible for a beyond-horizon completion that was
			// clamped at push; park it again.
			c.pushDone(seq, ents[i].issuedAt)
			continue
		}
		w.flags[slot] |= fCompleted

		rec := c.rec(seq)
		c.ctr[metrics.PRFWrites] += uint64(rec.NDst)
		switch {
		case rec.IsBranch():
			if f&fTrained == 0 {
				c.resolveBranch(seq, rec)
			}
		case rec.IsLoad():
			if f&fTrained == 0 {
				c.trainAddressPredictors(seq, rec)
				c.trainVTAGE(seq, rec)
			}
			c.validatePrediction(seq, rec)
		default:
			if f&fTrained == 0 {
				c.trainVTAGE(seq, rec)
			}
			c.validatePrediction(seq, rec)
		}
		w.flags[slot] |= fTrained
	}
}

// pushDone parks an issued instruction in the completion wheel bucket for
// its execDone cycle. A completion beyond the horizon is clamped to the
// wheel's last bucket and re-parked when it pops early; a completion not in
// the future (possible only for the degenerate zero-latency case, since
// issue runs after execute in the cycle) is processed next cycle, exactly
// when the old in-flight walk would first have seen it.
func (c *Core) pushDone(seq, issuedAt uint64) {
	t := c.a.w.execDone[seq&windowMask]
	if t <= c.now {
		t = c.now + 1
	} else if t >= c.now+doneWheelSize {
		t = c.now + doneWheelSize - 1
	}
	c.a.done[t&doneWheelMask] = append(c.a.done[t&doneWheelMask], doneEnt{seq: seq, issuedAt: issuedAt})
}

// resolveBranch trains the direction/target predictors at resolution and,
// for a mispredicted branch, redirects the stalled front end and repairs
// the speculative global history.
func (c *Core) resolveBranch(seq uint64, rec *trace.Rec) {
	w := &c.a.w
	slot := seq & windowMask
	switch rec.Op.Class() {
	case isa.ClassBr:
		if rec.IsCondBranch() {
			// Reuse the fetch-time lookup context: same (pc, hist), no re-hash.
			c.tage.UpdateLk(&c.cold(seq).tageLk, rec.PC, rec.Taken)
		}
	case isa.ClassJmp:
		c.ittage.Update(rec.PC, w.ghistBefore[slot], rec.Target())
	}
	if w.flags[slot]&fBrMispredict != 0 {
		c.ctr[metrics.BranchFlushes]++
		c.ghist.Restore(w.ghistAfter[slot])
		if c.fetchStallUntil > c.now+1 {
			c.fetchStallUntil = c.now + 1
		}
	}
}

// trainAddressPredictors updates PAP/CAP with the executed address. The
// paper always trains on execution — except for LSCD-blacklisted loads,
// which neither predict nor update so their entries age out.
func (c *Core) trainAddressPredictors(seq uint64, rec *trace.Rec) {
	w := &c.a.w
	slot := seq & windowMask
	f := w.flags[slot]
	if f&fLscdSkip != 0 {
		return
	}
	cd := c.cold(seq)
	if f&fPapLkValid != 0 {
		sizeLog2 := uint8(0)
		for b := int(rec.Bytes); b > 1; b >>= 1 {
			sizeLog2++
		}
		cd.papTrain = c.papPred.Train(cd.papLk, rec.Addr, sizeLog2, cd.l1Way)
		w.flags[slot] |= fPapTrainValid
	}
	if f&fCapLkValid != 0 {
		c.capPred.Train(cd.capLk, rec.PC, rec.Addr)
	}
}

// trainVTAGE updates VTAGE (and D-VTAGE) for every destination with the
// executed values.
func (c *Core) trainVTAGE(seq uint64, rec *trace.Rec) {
	cd := c.cold(seq)
	if c.vtPred != nil {
		for j := range cd.vtLks {
			c.vtPred.Train(cd.vtLks[j], rec.Op, rec.DestValue(j, c.ovf))
		}
	}
	if c.dvPred != nil {
		for j := range cd.dvLks {
			c.dvPred.Train(cd.dvLks[j], rec.DestValue(j, c.ovf))
		}
	}
}

// validatePrediction confirms an installed value prediction when the
// instruction executes. A mismatch triggers a pipeline flush after the
// 1-cycle check penalty. When the predicted *address* was correct but the
// value was not — the signature of an older in-flight store — the load's
// PC enters the LSCD so future instances are not predicted.
func (c *Core) validatePrediction(seq uint64, rec *trace.Rec) {
	w := &c.a.w
	slot := seq & windowMask
	if w.flags[slot]&fValidated != 0 {
		return // a replayed instruction validates only once
	}
	w.flags[slot] |= fValidated
	if c.chooser != nil {
		c.trainChooser(seq, rec)
	}
	cd := c.cold(seq)
	if w.flags[slot]&fVpMade != 0 {
		c.pvtCount -= cd.vpNumDests
		correct := true
		for j := 0; j < int(rec.NDst); j++ {
			if cd.vpPerDest[j] && cd.vpVals[j] != rec.DestValue(j, c.ovf) {
				correct = false
				break
			}
		}
		if !correct {
			if c.cfg.VP.SelectiveReplay {
				c.replayDependents(seq)
			} else {
				penalty := uint64(c.cfg.ValueCheckPenalty)
				c.scheduleFlush(flushReq{
					seq:       seq,
					refetchAt: seq + 1,
					resume:    c.now + penalty + 1,
					kind:      flushValue,
				})
			}
			c.maybeTrainLSCD(seq, rec)
		}
	} else if w.flags[slot]&fVpOracleDropped != 0 && cd.vpSource != 0 {
		// Oracle replay still observes the conflict for LSCD training.
		c.maybeTrainLSCD(seq, rec)
	}
}

// taint marks seq as a transitive dependent in the current replay pass.
func (c *Core) taint(seq uint64) {
	slot := seq & windowMask
	c.a.w.taintSeq[slot] = seq
	c.a.w.taintEp[slot] = c.replayEpoch
}

// tainted reports whether seq was marked in the current replay pass. The
// full seq is stored, so a committed producer whose slot was since reused
// never reads as tainted.
func (c *Core) tainted(seq uint64) bool {
	slot := seq & windowMask
	return c.a.w.taintEp[slot] == c.replayEpoch && c.a.w.taintSeq[slot] == seq
}

// replayDependents implements selective replay (the paper's Section 5.2.4
// future-work recovery): only the transitive register dependents of the
// mispredicted load re-execute. Tainted instructions that already issued
// return to the scheduler; they may re-issue once the check penalty has
// elapsed, now sourcing the load's architecturally correct value.
func (c *Core) replayDependents(loadSeq uint64) {
	c.ctr[metrics.ValueReplays]++
	c.eventWake = true // sleepers must recompute wakes against the new state
	w := &c.a.w
	notBefore := c.now + uint64(c.cfg.ValueCheckPenalty) + 1
	c.replayEpoch++
	c.taint(loadSeq)
	reissue := c.a.reissue[:0]
	for seq := loadSeq + 1; seq < c.fetchSeq; seq++ {
		if !c.live(seq) {
			continue
		}
		slot := seq & windowMask
		rec := c.rec(seq)
		dep := false
		for i := 0; i < int(rec.NSrc); i++ {
			if d := w.deps[slot][i]; d != 0 && c.tainted(d-1) {
				dep = true
				break
			}
		}
		if !dep {
			continue
		}
		c.taint(seq)
		if w.flags[slot]&fIssued == 0 {
			w.notBefore[slot] = notBefore
			continue
		}
		// Undo the issue; the instruction re-executes with correct inputs.
		w.flags[slot] &^= fIssued | fCompleted
		w.execDone[slot] = 0
		w.notBefore[slot] = notBefore
		reissue = append(reissue, seq)
	}
	c.a.reissue = reissue
	// Return the un-issued instructions to the scheduler (setting a slot's
	// iqBits bit re-enters it in age order). Their completion-wheel entries
	// are now stale and fall out at pop: fIssued is cleared, and a re-issue
	// stamps a new, later issueCycle.
	for _, s := range reissue {
		slot := s & windowMask
		c.a.iqBits[slot>>6] |= 1 << (slot & 63)
		c.iqCount++
	}
}

// maybeTrainLSCD inserts the load into the LSCD when its address prediction
// was correct but the probed value was stale (in-flight store conflict).
func (c *Core) maybeTrainLSCD(seq uint64, rec *trace.Rec) {
	if c.lscd == nil {
		return
	}
	f := c.a.w.flags[seq&windowMask]
	cd := c.cold(seq)
	var predictedAddr uint64
	var have bool
	switch {
	case f&fPapLkValid != 0 && cd.papLk.Confident:
		predictedAddr, have = cd.papLk.Addr, true
	case f&fCapLkValid != 0 && cd.capLk.Confident:
		predictedAddr, have = cd.capLk.Addr, true
	}
	if have && predictedAddr == rec.Addr && f&fProbeHit != 0 {
		c.lscd.Insert(rec.PC)
	}
}

// trainChooser updates the tournament chooser with both components'
// outcomes when both produced a confident prediction for this load.
func (c *Core) trainChooser(seq uint64, rec *trace.Rec) {
	f := c.a.w.flags[seq&windowMask]
	cd := c.cold(seq)
	dlvpPredicted := f&fProbeDone != 0 && f&fProbeHit != 0
	vtagePredicted := f&fVtAny != 0
	if !dlvpPredicted || !vtagePredicted {
		return
	}
	nd := int(rec.NDst)
	dlvpCorrect := true
	for j := 0; j < nd; j++ {
		if cd.probeVals[j] != rec.DestValue(j, c.ovf) {
			dlvpCorrect = false
			break
		}
	}
	vtageCorrect := true
	for j := 0; j < nd; j++ {
		if cd.vtValid[j] && cd.vtVals[j] != rec.DestValue(j, c.ovf) {
			vtageCorrect = false
			break
		}
	}
	c.chooser.Train(rec.PC, dlvpCorrect, vtageCorrect)
}

// readLoadValues reconstructs, from the committed-memory image, the value
// each destination register of inst would receive if the load read memory
// at addr right now, indexed like the record's destinations (an LDM word
// bound for XZR has none). This is the DLVP probe's data path.
func (c *Core) readLoadValues(inst *isa.Inst, addr uint64, out *[trace.MaxDests]uint64) {
	switch inst.Op {
	case isa.LDR, isa.LDAR:
		out[0] = c.cmem.Read(addr, 1<<inst.Size)
	case isa.LDRS:
		size := 1 << inst.Size
		v := c.cmem.Read(addr, size)
		if size < 8 {
			shift := uint(64 - 8*size)
			v = uint64(int64(v<<shift) >> shift)
		}
		out[0] = v
	case isa.LDRPOST:
		out[0] = c.cmem.Read(addr, 8)
		out[1] = addr + uint64(inst.Imm) // the base update is computable
	case isa.LDP, isa.VLD:
		out[0] = c.cmem.Read(addr, 8)
		out[1] = c.cmem.Read(addr+8, 8)
	case isa.LDM:
		n := 0
		for k := uint8(0); k < inst.NReg && n < trace.MaxDests; k++ {
			if inst.Rd+isa.Reg(k) != isa.XZR {
				out[n] = c.cmem.Read(addr+uint64(k)*8, 8)
				n++
			}
		}
	}
}
