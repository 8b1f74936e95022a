package uarch

// lsq is the core's load/store queue index: the in-flight (fetched,
// uncommitted) loads and stores in age order, each with the address and
// width it accesses, captured at fetch so the queries never touch a trace
// record. Fetch pushes, commit pops and a squash truncates. Issue state is
// not copied: the queries read the window's fIssued bit and issueCycle.
//
// The lsq answers the core's three memory-order questions; the core keeps
// what follows from them (MDP training, flush scheduling). The assert
// build checks every answer against a linear scan of the window
// (assert_on.go), and FuzzLSQ drives the type alone against those scans.
type lsq struct {
	w      *windowState
	ld, st seqRing
	// addr and size hold the access of window slot seq&windowMask while
	// seq sits in ld or st.
	addr [windowCap]uint64
	size [windowCap]uint8
}

func (q *lsq) reset() { q.ld.reset(); q.st.reset() }

// ring returns the store ring when store is set, the load ring otherwise.
func (q *lsq) ring(store bool) *seqRing {
	if store {
		return &q.st
	}
	return &q.ld
}

// push records fetched memory access seq.
func (q *lsq) push(seq uint64, store bool, addr uint64, size uint8) {
	q.addr[seq&windowMask], q.size[seq&windowMask] = addr, size
	q.ring(store).push(seq)
}

// pop retires the oldest store (or load) at commit.
func (q *lsq) pop(store bool) { q.ring(store).head++ }

// squashFrom drops every access from seq on.
func (q *lsq) squashFrom(seq uint64) { q.ld.truncateFrom(seq); q.st.truncateFrom(seq) }

// olderUnissuedStore returns the youngest store older than seq that has
// not issued yet, so its address is still unknown; ok reports whether one
// exists. The walk runs younger to older: stores issue roughly in age
// order, so an unissued one sits near seq.
func (q *lsq) olderUnissuedStore(seq uint64) (st uint64, ok bool) {
	for i := q.st.lowerBound(seq) - 1; i >= 0; i-- {
		if s := q.st.at(i); q.w.flags[s&windowMask]&fIssued == 0 {
			return s, true
		}
	}
	return 0, false
}

// fwdOutcome classifies a load against the older issued stores. On
// fwdPartial the youngest overlapping store covers only part of the load:
// the STQ cannot compose a value from store data plus memory, so the load
// waits until that store commits and its bytes reach committed memory.
type fwdOutcome int8

const (
	fwdNone    fwdOutcome = iota // no overlap: read the cache hierarchy
	fwdHit                       // the youngest overlapping store contains the load: forward
	fwdPartial                   // it covers part of the load: wait for its commit
)

// forward finds the youngest issued store older than load seq whose bytes
// overlap the load's, since its bytes are the architecturally visible
// ones, and classifies the pair: full containment forwards, partial
// overlap blocks. It binary-searches the STQ ring to the load and walks
// younger to older.
func (q *lsq) forward(seq uint64) (uint64, fwdOutcome) {
	la, ln := q.addr[seq&windowMask], q.size[seq&windowMask]
	for i := q.st.lowerBound(seq) - 1; i >= 0; i-- {
		s := q.st.at(i)
		slot := s & windowMask
		sa, sn := q.addr[slot], q.size[slot]
		if q.w.flags[slot]&fIssued == 0 || !overlap(sa, sn, la, ln) {
			continue
		}
		if sa <= la && la+uint64(ln) <= sa+uint64(sn) {
			return s, fwdHit
		}
		return s, fwdPartial
	}
	return 0, fwdNone
}

// violation finds the oldest load younger than store seq that overlaps it
// and issued before the store resolved its address in cycle now: that load
// read stale data. Loads issued in cycle now are excluded: the issue scan
// is oldest-first, so such a load was processed after this older store and
// already saw it in the store queue. It forwarded or stalled correctly, and
// admitting it would make the outcome depend on IQ position.
func (q *lsq) violation(seq, now uint64) (uint64, bool) {
	sa, sn := q.addr[seq&windowMask], q.size[seq&windowMask]
	for i, n := q.ld.lowerBound(seq+1), q.ld.len(); i < n; i++ {
		s := q.ld.at(i)
		slot := s & windowMask
		if q.w.flags[slot]&fIssued == 0 || q.w.issueCycle[slot] >= now {
			continue
		}
		if overlap(sa, sn, q.addr[slot], q.size[slot]) {
			return s, true
		}
	}
	return 0, false
}

func overlap(a1 uint64, n1 uint8, a2 uint64, n2 uint8) bool {
	return a1 < a2+uint64(n2) && a2 < a1+uint64(n1)
}

// seqRing is a bounded FIFO of ascending sequence numbers backed by a
// power-of-two array: pushed at fetch, popped at commit, truncated from the
// tail on a squash.
type seqRing struct {
	buf  [windowCap]uint64
	head uint32
	tail uint32
}

func (r *seqRing) reset()          { r.head, r.tail = 0, 0 }
func (r *seqRing) len() int        { return int(r.tail - r.head) }
func (r *seqRing) push(seq uint64) { r.buf[r.tail&windowMask] = seq; r.tail++ }

func (r *seqRing) at(i int) uint64 { return r.buf[(r.head+uint32(i))&windowMask] }

// truncateFrom drops every element >= seq (squash of the younger tail).
func (r *seqRing) truncateFrom(seq uint64) {
	for r.tail != r.head && r.buf[(r.tail-1)&windowMask] >= seq {
		r.tail--
	}
}

// lowerBound returns the index of the first element >= seq.
func (r *seqRing) lowerBound(seq uint64) int {
	lo, hi := 0, r.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.at(mid) < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
