package uarch

import (
	"math/bits"

	"dlvp/internal/isa"
	"dlvp/internal/metrics"
	"dlvp/internal/trace"
)

// issueStage selects up to IssueWidth ready instructions per cycle, oldest
// first, with at most LSLanes memory operations (Table 4: 8 lanes, 2 of
// which support load-store). Leftover load-store lanes become the bubbles
// the DLVP probe engine uses (probeStage).
//
// Candidates come from the iqBits bitmap (renamed & unissued slots) rather
// than a queue scan: the words are walked starting from the commit head's
// slot — which is age order, because a slot's seq is unique among live
// instructions — and each word yields its candidates via TrailingZeros64.
// Only active candidates are examined (Arena.activeBits). One that fails a
// check sleeps until the event that can change the answer: the wheel cycle
// it can next be ready in, or the issue of the producer or the older store
// it waits for. Once the load-store lanes are used up, memBits masks the
// remaining memory candidates out of the scan; they stay active for the
// next cycle.
func (c *Core) issueStage() {
	issued, memIssued, loadsIssued := 0, 0, 0
	w := &c.a.w
	// Wake the sleepers whose wheel cycle arrived and, after a selective
	// replay or a flush changed the window behind their backs, every
	// candidate (those still not ready fail their checks and sleep again).
	if bkt := &c.a.wheel[c.now&wheelMask]; len(*bkt) > 0 {
		for _, slot := range *bkt {
			c.a.activeBits[slot>>6] |= 1 << (slot & 63)
		}
		*bkt = (*bkt)[:0]
	}
	if c.eventWake {
		c.eventWake = false
		for i := range c.a.activeBits {
			c.a.activeBits[i] |= c.a.iqBits[i]
		}
	}
	if c.iqCount > 0 {
		startSlot := int(c.headSeq & windowMask)
		base := c.headSeq - uint64(startSlot)
		startWord := startSlot >> 6
		startBit := uint(startSlot & 63)
		// iqBits are only ever set for slots in [headSeq, fetchSeq), so the
		// scan can stop after the words that span the live region. Only when
		// the occupied span wraps past the head word does the final partial
		// revisit (k == windowWords) have anything to contribute.
		lastK := int((uint64(startBit) + (c.fetchSeq - c.headSeq) + 63) >> 6)
		if lastK > windowWords {
			lastK = windowWords + 1
		}
	scan:
		for k := 0; k < lastK; k++ {
			wi := (startWord + k) & (windowWords - 1)
			span := ^uint64(0)
			if k == 0 {
				span <<= startBit // slots below the head belong to the wrapped tail
			} else if k == windowWords {
				span = 1<<startBit - 1 // wrapped tail: only slots below the head
			}
			word := c.a.activeBits[wi] & c.a.iqBits[wi] & span
			if memIssued >= c.cfg.LSLanes {
				word &^= c.a.memBits[wi]
			}
			for word != 0 {
				if issued >= c.cfg.IssueWidth {
					break scan
				}
				b := bits.TrailingZeros64(word)
				word &= word - 1
				slot := wi<<6 | b
				seq := base + uint64(slot)
				if slot < startSlot {
					seq += windowCap
				}

				if nb := w.notBefore[slot]; nb > c.now {
					c.sleepUntil(slot, nb) // replay cool-down
					continue
				}
				f := w.flags[slot]
				if ready, wake, blocker := c.depsReady(seq); !ready {
					if wake > c.now {
						c.sleepUntil(slot, wake)
					} else {
						// The blocking producer has not issued, so its
						// completion time is unknown: sleep on its waiter
						// list until it issues.
						c.sleepOn(blocker, slot)
					}
					continue
				}
				if f&fMdpWait != 0 {
					st, held := c.a.lsq.olderUnissuedStore(seq)
					c.lockstepUnissued(seq, st, held)
					if held {
						// MDP holds the load until every older store has
						// resolved its address: sleep on the youngest
						// unissued one, which wakes it when it issues.
						c.sleepOn(int(st&windowMask), slot)
						continue
					}
				}
				ldFwd := fwdNone
				if f&fIsLoad != 0 {
					var st uint64
					st, ldFwd = c.a.lsq.forward(seq)
					c.lockstepForward(seq, st, ldFwd)
					if ldFwd == fwdPartial {
						// An older issued store partially covers this load's
						// bytes: the STQ cannot forward a partial value, so
						// the load waits for the store to drain to committed
						// memory (it leaves the STQ at commit). Stays active;
						// commit runs earlier in the cycle, so the load can
						// issue the same cycle the store commits.
						if f&fPartialStall == 0 {
							w.flags[slot] = f | fPartialStall
							c.ctr[metrics.StoreFwdPartialStalls]++
						}
						continue
					}
				}

				w.flags[slot] = f | fIssued
				w.issueCycle[slot] = c.now
				c.a.iqBits[wi] &^= 1 << uint(b)
				c.a.activeBits[wi] &^= 1 << uint(b)
				c.iqCount--
				issued++
				if f&fIsLoad != 0 {
					loadsIssued++
				}
				rec := c.rec(seq)
				c.executeAt(seq, rec, ldFwd)
				c.pushDone(seq, c.now)
				c.ctr[metrics.PRFReads] += uint64(rec.NSrc)
				if f&fIsStore != 0 {
					// The loads held behind this store may issue later in
					// this same scan: wake them, and merge those that sit
					// in this word, younger than the store, into it.
					c.wakeWaiters(slot)
					word |= c.a.activeBits[wi] & c.a.iqBits[wi] & span &^ (2<<uint(b) - 1)
				} else {
					c.parkWaiters(slot)
				}
				if f&fIsMem != 0 {
					if memIssued++; memIssued >= c.cfg.LSLanes {
						word &^= c.a.memBits[wi]
					}
				}
			}
		}
	}
	// Probe bandwidth: DLVP probes use the L1D *read* path (the paper
	// reuses the L1 prefetcher's probe path). Loads occupy it on issue;
	// stores write through the store buffer at commit and leave the read
	// ports free, so only issued loads consume probe opportunities.
	c.loadPortsFreeThisCycle = c.cfg.LSLanes - loadsIssued
	c.memIssuedThisCycle = memIssued
	c.lockstepIssue()
}

// wheelAt returns the timing-wheel wake list for cycle t > now, clamped to
// the wheel's horizon (waking early is safe: the candidate re-checks and
// sleeps again).
func (c *Core) wheelAt(t uint64) *[]uint32 {
	if t >= c.now+wheelSize {
		t = c.now + wheelSize - 1
	}
	return &c.a.wheel[t&wheelMask]
}

// sleepUntil removes a scheduler candidate from the active set until cycle
// t > now.
func (c *Core) sleepUntil(slot int, t uint64) {
	bkt := c.wheelAt(t)
	*bkt = append(*bkt, uint32(slot))
	c.a.activeBits[slot>>6] &^= 1 << (uint(slot) & 63)
}

// sleepOn removes a scheduler candidate from the active set until the
// instruction in slot p issues.
func (c *Core) sleepOn(p, slot int) {
	c.a.waiters[p] = append(c.a.waiters[p], uint32(slot))
	c.a.activeBits[slot>>6] &^= 1 << (uint(slot) & 63)
}

// wakeWaiters re-activates every candidate sleeping on slot p.
func (c *Core) wakeWaiters(p int) {
	ws := c.a.waiters[p]
	if len(ws) == 0 {
		return
	}
	for _, s := range ws {
		c.a.activeBits[s>>6] |= 1 << (s & 63)
	}
	c.a.waiters[p] = ws[:0]
}

// parkWaiters moves every candidate sleeping on slot p, a register producer
// that has just issued, to the wheel at p's completion cycle: none of them
// can be ready before it, so waking them now would only put them back to
// sleep until then.
func (c *Core) parkWaiters(p int) {
	ws := c.a.waiters[p]
	if len(ws) == 0 {
		return
	}
	bkt := c.wheelAt(c.a.w.execDone[p])
	*bkt = append(*bkt, ws...)
	c.a.waiters[p] = ws[:0]
}

// depsReady reports whether every source operand is available: either the
// producer completed, or the producer carries a value prediction for that
// register and has passed rename (the PVT supplies the value). Unused
// source slots hold 0, so all of them can be scanned without the record.
//
// On failure, wake is the cycle the blocking operand becomes available when
// that is already known (the producer has issued, so its completion time is
// fixed). When it is not (wake 0), blocker is the producer's window slot:
// readiness then requires that producer to issue (a value prediction is
// installed at its rename, before any dependent is examined).
func (c *Core) depsReady(seq uint64) (ready bool, wake uint64, blocker int) {
	w := &c.a.w
	slot := seq & windowMask
	for i := 0; i < trace.MaxSrcs; i++ {
		dep := w.deps[slot][i]
		if dep == 0 {
			continue
		}
		s := dep - 1
		if !c.live(s) {
			continue // committed: value in the PRF
		}
		ps := s & windowMask
		pf := w.flags[ps]
		if pf&fCompleted != 0 && w.execDone[ps] <= c.now {
			continue
		}
		if pf&fVpMade != 0 && pf&fRenamed != 0 && w.renameCycle[ps] <= c.now &&
			c.predictsReg(s, c.rec(seq).Src[i]) {
			continue
		}
		if pf&fIssued != 0 {
			if t := w.execDone[ps]; t > c.now {
				return false, t, 0
			}
			return false, c.now + 1, 0 // completing this very cycle; re-check next
		}
		return false, 0, int(ps)
	}
	return true, 0, 0
}

// predictsReg reports whether producer pseq carries a predicted value for
// architectural register r.
func (c *Core) predictsReg(pseq uint64, r isa.Reg) bool {
	prec := c.rec(pseq)
	cd := c.cold(pseq)
	nd := int(prec.NDst)
	for j := 0; j < nd; j++ {
		if cd.vpPerDest[j] && prec.DestReg(j, c.ovf) == r {
			return true
		}
	}
	return false
}

// executeAt computes the completion time of a just-issued instruction and
// performs its memory-system interaction. For loads, ldFwd is the store-
// queue classification the issue scan already computed this cycle (a load
// never issues while classified fwdPartial).
func (c *Core) executeAt(seq uint64, rec *trace.Rec, ldFwd fwdOutcome) {
	w := &c.a.w
	slot := seq & windowMask
	switch {
	case rec.IsStore():
		// Address generation; data rides along. The cache write happens at
		// commit through the store buffer.
		w.execDone[slot] = c.now + 1
		c.checkOrderViolation(seq)
	case rec.IsLoad():
		agu := c.now + 1
		if ldFwd == fwdHit {
			w.execDone[slot] = agu + 1 // store-to-load forward
			c.cold(seq).l1Way = -1
		} else {
			res := c.hier.Load(agu, rec.PC, rec.Addr)
			w.execDone[slot] = agu + uint64(res.Latency)
			c.cold(seq).l1Way = int8(res.L1Way)
		}
	default:
		w.execDone[slot] = c.now + uint64(rec.Op.ExecLatency())
	}
}

// checkOrderViolation squashes the load the LSQ finds executed before store
// seq resolved its address: a memory-ordering violation. The load and
// everything younger are refetched, and the MDP learns to hold that load in
// the future.
func (c *Core) checkOrderViolation(seq uint64) {
	ld, ok := c.a.lsq.violation(seq, c.now)
	c.lockstepViolation(seq, ld, ok)
	if !ok {
		return
	}
	c.mdp.RecordViolation(c.rec(ld).PC)
	c.scheduleFlush(flushReq{
		seq:       ld - 1,
		refetchAt: ld,
		resume:    c.now + 2,
		kind:      flushOrder,
	})
}
