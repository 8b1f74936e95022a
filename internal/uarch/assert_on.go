//go:build uarchassert

package uarch

import "fmt"

// This build checks every memory-order answer the LSQ gives the core, and
// every issue stage's selection, in lockstep with a linear reference and
// panics on a mismatch, so a bookkeeping or semantics regression fails
// loudly instead of silently perturbing statistics. FuzzLSQ drives the LSQ
// alone against the same references.
//
// Each reference scans the live window [head, fetch) slot by slot. It
// reads issue state from the window columns and each access's address and
// width through access: the core passes the trace record, FuzzLSQ its own
// model. Byte overlap is counted byte by byte, independently of overlap.

// accessFn returns the address and width of in-flight memory access seq.
type accessFn func(seq uint64) (addr uint64, size uint8)

// coveredBytes counts the bytes of [a, a+n) that [sa, sa+sn) writes.
func coveredBytes(sa uint64, sn uint8, a uint64, n uint8) int {
	k := 0
	for b := a; b < a+uint64(n); b++ {
		if sa <= b && b < sa+uint64(sn) {
			k++
		}
	}
	return k
}

// refOlderStoreUnissued returns the youngest live store older than seq
// that has not issued.
func refOlderStoreUnissued(w *windowState, head, seq uint64) (uint64, bool) {
	for s := seq; s > head; {
		s--
		if f := w.flags[s&windowMask]; f&fValid != 0 && f&fIsStore != 0 && f&fIssued == 0 {
			return s, true
		}
	}
	return 0, false
}

// refForward returns the youngest issued store older than load seq that
// writes any of its bytes, classified by whether it writes all of them.
func refForward(w *windowState, head, seq uint64, access accessFn) (uint64, fwdOutcome) {
	la, ln := access(seq)
	for s := seq; s > head; {
		s--
		f := w.flags[s&windowMask]
		if f&fValid == 0 || f&fIsStore == 0 || f&fIssued == 0 {
			continue
		}
		sa, sn := access(s)
		switch coveredBytes(sa, sn, la, ln) {
		case 0:
			continue
		case int(ln):
			return s, fwdHit
		default:
			return s, fwdPartial
		}
	}
	return 0, fwdNone
}

// refViolation returns the oldest load younger than store seq that issued
// before cycle now and reads any byte the store writes.
func refViolation(w *windowState, seq, fetch, now uint64, access accessFn) (uint64, bool) {
	sa, sn := access(seq)
	for s := seq + 1; s < fetch; s++ {
		slot := s & windowMask
		f := w.flags[slot]
		if f&fValid == 0 || f&fIsLoad == 0 || f&fIssued == 0 || w.issueCycle[slot] >= now {
			continue
		}
		if la, ln := access(s); coveredBytes(sa, sn, la, ln) > 0 {
			return s, true
		}
	}
	return 0, false
}

// access reads an in-flight access from its trace record, not from the
// copy the LSQ captured at fetch.
func (c *Core) access(seq uint64) (uint64, uint8) {
	r := c.rec(seq)
	return r.Addr, r.Bytes
}

func (c *Core) lockstepUnissued(seq, st uint64, got bool) {
	if ws, want := refOlderStoreUnissued(&c.a.w, c.headSeq, seq); st != ws || got != want {
		c.lsqMismatch("olderUnissuedStore", seq, [2]any{st, got}, [2]any{ws, want})
	}
}

func (c *Core) lockstepForward(seq, st uint64, got fwdOutcome) {
	if ws, want := refForward(&c.a.w, c.headSeq, seq, c.access); st != ws || got != want {
		c.lsqMismatch("forward", seq, [2]any{st, got}, [2]any{ws, want})
	}
}

func (c *Core) lockstepViolation(seq, ld uint64, got bool) {
	if wl, want := refViolation(&c.a.w, seq, c.fetchSeq, c.now, c.access); ld != wl || got != want {
		c.lsqMismatch("violation", seq, [2]any{ld, got}, [2]any{wl, want})
	}
}

func (c *Core) lsqMismatch(query string, seq uint64, got, want any) {
	panic(fmt.Sprintf("uarch: lsq %s(%d) = %v, linear reference %v (cycle %d, window [%d, %d))",
		query, seq, got, want, c.now, c.headSeq, c.fetchSeq))
}

// lockstepIssue checks the issue stage just run against an oldest-first
// walk of the window that reads none of the scheduler's wake state
// (activeBits, the timing wheel, the waiter lists). Every renamed,
// unissued instruction must have been blocked: by the issue width or the
// load-store lanes that older instructions used this cycle, by its replay
// cool-down, by an operand, by an older unissued store while the MDP holds
// it, or by a partially covering older store. One that was not is a lost
// wakeup: the scan skipped a candidate that could issue.
func (c *Core) lockstepIssue() {
	w := &c.a.w
	issued, memIssued := 0, 0
	for seq := c.headSeq; seq < c.fetchSeq; seq++ {
		slot := seq & windowMask
		f := w.flags[slot]
		if f&fValid == 0 || f&fRenamed == 0 {
			continue
		}
		isMem := f&fIsMem != 0
		if f&fIssued != 0 {
			if w.issueCycle[slot] == c.now {
				issued++
				if isMem {
					memIssued++
				}
			}
			continue
		}
		if issued >= c.cfg.IssueWidth || isMem && memIssued >= c.cfg.LSLanes || w.notBefore[slot] > c.now {
			continue
		}
		if ready, _, _ := c.depsReady(seq); !ready {
			continue
		}
		if f&fMdpWait != 0 {
			if _, held := refOlderStoreUnissued(w, c.headSeq, seq); held {
				continue
			}
		}
		if f&fIsLoad != 0 {
			if _, fwd := refForward(w, c.headSeq, seq, c.access); fwd == fwdPartial {
				continue
			}
		}
		panic(fmt.Sprintf("uarch: issue left seq %d unissued in cycle %d although nothing blocked it (window [%d, %d))",
			seq, c.now, c.headSeq, c.fetchSeq))
	}
}
