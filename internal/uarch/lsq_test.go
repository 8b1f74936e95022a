//go:build uarchassert

package uarch

import "testing"

// FuzzLSQ drives the load/store queue alone against the linear references
// in assert_on.go. An input is a start sequence number followed by a
// program of one-byte operations (the low three bits select one, the high
// five carry its argument) on a window of loads and stores:
//
//	0, 1  fetch a load (0) or a store (1) at byte argument of a 32-byte
//	      range; the next byte's low two bits give the width 1, 2, 4 or 8
//	2     issue live entry argument in the current cycle
//	3     un-issue live entry argument, as a selective replay does
//	4     advance the cycle
//	5     commit the oldest entry
//	6     squash from live entry argument
//	7     query live entry argument: every question that applies to it
//
// Issue state lives only in the window columns, as in the core. Every
// query must match the reference. Run with:
//
//	go test -tags uarchassert -run '^$' -fuzz '^FuzzLSQ$' -fuzztime 15s ./internal/uarch
func FuzzLSQ(f *testing.F) {
	// One arena serves every input: a fresh one per input is an order of
	// magnitude slower than the operations themselves.
	a := NewArena()
	var addr [windowCap]uint64
	var size [windowCap]uint8
	access := func(seq uint64) (uint64, uint8) { return addr[seq&windowMask], size[seq&windowMask] }
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		a.reset()
		w := &a.w
		// Start near the end of the window's slot range so short inputs
		// wrap it too.
		head := uint64(windowCap-64) + uint64(in[0])
		fetch, now := head, uint64(0)
		for i := 1; i < len(in); i++ {
			op, arg := in[i]&7, uint64(in[i]>>3)
			live := fetch - head
			pick := head
			if live > 0 {
				pick += arg % live
			}
			slot := pick & windowMask
			switch {
			case op <= 1:
				if live >= windowCap-1 {
					continue
				}
				n := uint8(8)
				if i+1 < len(in) {
					i++
					n = 1 << (in[i] & 3)
				}
				fs := fetch & windowMask
				addr[fs], size[fs] = 0x1000+arg, n
				w.flags[fs] = fValid | fIsLoad
				if op == 1 {
					w.flags[fs] = fValid | fIsStore
				}
				a.lsq.push(fetch, op == 1, addr[fs], n)
				fetch++
			case live == 0:
				if op == 4 {
					now++
				}
			case op == 2:
				if w.flags[slot]&fIssued == 0 {
					w.flags[slot] |= fIssued
					w.issueCycle[slot] = now
				}
			case op == 3:
				w.flags[slot] &^= fIssued
			case op == 4:
				now++
			case op == 5:
				a.lsq.pop(w.flags[head&windowMask]&fIsStore != 0)
				w.flags[head&windowMask] &^= fValid
				head++
			case op == 6:
				a.lsq.squashFrom(pick)
				for s := pick; s < fetch; s++ {
					w.flags[s&windowMask] &^= fValid
				}
				fetch = pick
			case op == 7:
				st, got := a.lsq.olderUnissuedStore(pick)
				if ws, want := refOlderStoreUnissued(w, head, pick); st != ws || got != want {
					t.Fatalf("op %d: olderUnissuedStore(%d) = %d/%v, reference %d/%v (window [%d, %d))",
						i, pick, st, got, ws, want, head, fetch)
				}
				if w.flags[slot]&fIsLoad != 0 {
					st, got := a.lsq.forward(pick)
					if ws, want := refForward(w, head, pick, access); st != ws || got != want {
						t.Fatalf("op %d: forward(%d) = %d/%d, reference %d/%d (window [%d, %d))",
							i, pick, st, got, ws, want, head, fetch)
					}
				} else {
					ld, got := a.lsq.violation(pick, now)
					if wl, want := refViolation(w, pick, fetch, now, access); ld != wl || got != want {
						t.Fatalf("op %d: violation(%d) at cycle %d = %d/%v, reference %d/%v (window [%d, %d))",
							i, pick, now, ld, got, wl, want, head, fetch)
					}
				}
			}
		}
	})
}
