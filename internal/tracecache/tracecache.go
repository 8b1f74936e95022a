// Package tracecache is a byte-budgeted, concurrency-safe capture/replay
// cache for functional-emulation trace streams, keyed by (workload,
// instruction budget).
//
// Every experiment matrix sweeps many core configurations over the same
// workloads, yet each timing simulation re-runs the functional emulator
// over an identical instruction stream. The stream is fully determined by
// (workload, instrs) — the emulator takes no configuration — so the cache
// records it once and replays the buffered records to every other
// configuration:
//
//   - the first reader for a key becomes the capture *lead*: it streams
//     from the live emulator while appending each trace.Rec (56 bytes, no
//     pointers) into an in-memory buffer; the extra destinations of wide
//     records stay in the emulator's overflow table, which every snapshot
//     publishes alongside the records;
//   - concurrent readers for the same key *follow* the capture
//     (single-flight: one emulation no matter how many configurations ask
//     at once), tailing the published prefix lock-free and parking only
//     when they catch up to the lead;
//   - once a capture completes, later readers get a pure replay of the
//     buffered records with zero re-emulation, served as a
//     *trace.SliceReader whose records the core indexes in place;
//   - a capture that is abandoned (its simulation stopped early) or that
//     runs out of budget fails open: followers transparently fall back to
//     a fresh emulator, skipping the records they already consumed, so a
//     reader always observes the exact stream the live emulator would have
//     produced.
//
// The byte budget bounds resident memory: complete captures (records plus
// overflow table) live in an lru.Cache charged their bytes, in-flight
// captures count against the same budget, and a stream whose upper bound
// (instrs × record size) cannot fit is bypassed to live emulation without
// buffering. The 512 MiB default thus retains 31 complete 300k-instruction
// captures.
package tracecache

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"dlvp/internal/lru"
	"dlvp/internal/trace"
)

// RecSize is the in-memory size of one buffered trace record; the byte
// budget charges it per record, plus each stream's overflow-table bytes.
const RecSize = int64(unsafe.Sizeof(trace.Rec{}))

// publishChunk is how many records the capture lead appends between
// visibility publications. Followers lag the lead by at most this many
// records; the lead pays one atomic store and one channel close per chunk.
const publishChunk = 4096

// Outcome classifies how a Reader call was served.
type Outcome string

const (
	// OutcomeCapture: this reader is the lead recording a live emulation.
	OutcomeCapture Outcome = "capture"
	// OutcomeReplay: served entirely from a completed capture.
	OutcomeReplay Outcome = "replay"
	// OutcomeFollow: tailing a capture another reader is recording.
	OutcomeFollow Outcome = "follow"
	// OutcomeBypass: served by live emulation without recording (cache
	// disabled, zero budget, or the stream cannot fit the budget).
	OutcomeBypass Outcome = "bypass"
)

// snapshot is the immutable published view of one capture. Records
// [0, len(recs)) are final and safe to read concurrently; the lead appends
// beyond len into the same backing array before publishing the next view.
// ovf is the matching view of the stream's overflow table, which grows the
// same way.
type snapshot struct {
	recs     []trace.Rec
	ovf      trace.Overflow
	complete bool // stream ended; recs is the whole trace
	failed   bool // capture aborted; readers past recs must re-emulate
}

// bytes is what the snapshot's contents are charged against the budget.
func (s *snapshot) bytes() int64 { return int64(len(s.recs))*RecSize + s.ovf.Bytes() }

// entry is one (workload, instrs) stream while it is captured. Followers
// keep it until their stream ends; a completed capture's snapshot moves
// into the cache's LRU.
type entry struct {
	key    string
	source func() trace.Reader

	snap atomic.Pointer[snapshot]

	// wake is closed and replaced after every publication so parked
	// followers re-check the snapshot.
	mu   sync.Mutex
	wake chan struct{}
}

func (e *entry) publish(s *snapshot) {
	e.snap.Store(s)
	e.mu.Lock()
	close(e.wake)
	e.wake = make(chan struct{})
	e.mu.Unlock()
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	BudgetBytes     int64 `json:"budget_bytes"`
	ResidentBytes   int64 `json:"resident_bytes"`  // complete captures held
	CapturingBytes  int64 `json:"capturing_bytes"` // published bytes of live captures
	Entries         int   `json:"entries"`         // complete captures resident
	Capturing       int   `json:"capturing"`       // captures in flight now
	Captures        int64 `json:"captures"`        // capture leads started
	CapturesDone    int64 `json:"captures_done"`   // captures that completed and were retained
	CapturesAborted int64 `json:"captures_aborted"`
	Replays         int64 `json:"replays"` // readers served from a complete capture
	Follows         int64 `json:"follows"` // readers that tailed a live capture
	Bypasses        int64 `json:"bypasses"`
	Fallbacks       int64 `json:"fallbacks"` // followers that resumed on a live emulator
	Evictions       int64 `json:"evictions"`
	TooLarge        int64 `json:"too_large"`  // streams whose bound exceeds the budget
	Emulations      int64 `json:"emulations"` // live emulator streams constructed
}

// HitRatio returns the fraction of readers served without starting a new
// emulation (replays and follows over all readers), in [0, 1].
func (s Stats) HitRatio() float64 {
	total := s.Replays + s.Follows + s.Captures + s.Bypasses
	if total == 0 {
		return 0
	}
	return float64(s.Replays+s.Follows) / float64(total)
}

// Cache is the capture/replay cache. The zero value is not usable;
// construct with New. A nil *Cache is a valid "disabled" cache: Reader
// bypasses to live emulation.
type Cache struct {
	budget int64
	// complete holds the completed captures, charged their bytes. It is
	// trimmed to what the captures in flight leave of the budget.
	complete *lru.Cache[*snapshot]

	mu        sync.Mutex // taken before complete's own lock
	capturing map[string]*entry
	live      int64 // published bytes of in-flight captures

	captures        int64
	capturesDone    int64
	capturesAborted int64
	replays         int64
	follows         int64
	bypasses        int64
	fallbacks       int64
	tooLarge        int64
	emulations      int64
}

// New returns a cache retaining up to budget bytes of trace records.
// A non-positive budget yields a cache that bypasses everything (every
// reader is live emulation), which keeps callers free of nil checks.
func New(budget int64) *Cache {
	if budget < 0 {
		budget = 0
	}
	return &Cache{budget: budget, complete: lru.New[*snapshot](budget), capturing: make(map[string]*entry)}
}

// Budget reports the configured byte budget.
func (c *Cache) Budget() int64 {
	if c == nil {
		return 0
	}
	return c.budget
}

// Key returns the cache key for a (workload, instrs) stream.
func Key(workload string, instrs uint64) string {
	// instrs is encoded in fixed width so keys never collide across the
	// name/budget boundary.
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(instrs >> (8 * i))
	}
	return workload + "\x00" + string(buf[:])
}

// Reader returns a trace.Reader for the (workload, instrs) stream, a
// release function the caller must invoke once it is done with the reader,
// and the outcome describing how the stream is served. source constructs a
// fresh live emulation stream; the cache calls it for capture leads,
// bypasses, and fallbacks only.
//
// The returned reader produces exactly the records source() would,
// regardless of outcome. Reader never blocks; a follower parks inside Next
// only while the lead is still producing, and wakes to a transparent live
// fallback if the lead abandons its capture.
func (c *Cache) Reader(workload string, instrs uint64, source func() trace.Reader) (trace.Reader, func(), Outcome) {
	nop := func() {}
	if c == nil || c.budget == 0 {
		if c != nil {
			c.mu.Lock()
			c.bypasses++
			c.emulations++
			c.mu.Unlock()
		}
		return source(), nop, OutcomeBypass
	}
	// An unbounded stream (instrs == 0) or one whose upper bound cannot
	// fit is never buffered. The bound is conservative: a program that
	// halts early would have fit, but workload kernels run forever and
	// always fill their budget.
	if instrs == 0 || int64(instrs) > c.budget/RecSize {
		c.mu.Lock()
		c.bypasses++
		c.emulations++
		if instrs != 0 {
			c.tooLarge++
		}
		c.mu.Unlock()
		return source(), nop, OutcomeBypass
	}

	key := Key(workload, instrs)
	c.mu.Lock()
	if snap, ok := c.complete.Get(key); ok {
		c.replays++
		c.mu.Unlock()
		ovf := snap.ovf
		return &trace.SliceReader{Recs: snap.recs, Ovf: &ovf}, nop, OutcomeReplay
	}
	if e, ok := c.capturing[key]; ok {
		c.follows++
		c.mu.Unlock()
		return &followReader{c: c, e: e}, nop, OutcomeFollow
	}
	e := &entry{key: key, source: source, wake: make(chan struct{})}
	e.snap.Store(&snapshot{})
	c.capturing[key] = e
	c.captures++
	c.emulations++
	c.mu.Unlock()

	inner := source()
	cap := &captureReader{c: c, e: e, inner: inner, ovf: trace.OverflowOf(inner), buf: make([]trace.Rec, 0, instrs)}
	return cap, cap.release, OutcomeCapture
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := c.complete.Stats()
	return Stats{
		BudgetBytes:     c.budget,
		ResidentBytes:   cs.Cost,
		CapturingBytes:  c.live,
		Entries:         cs.Len,
		Capturing:       len(c.capturing),
		Captures:        c.captures,
		CapturesDone:    c.capturesDone,
		CapturesAborted: c.capturesAborted,
		Replays:         c.replays,
		Follows:         c.follows,
		Bypasses:        c.bypasses,
		Fallbacks:       c.fallbacks,
		Evictions:       cs.Evictions,
		TooLarge:        c.tooLarge,
		Emulations:      c.emulations,
	}
}

// --- capture (lead) ----------------------------------------------------------

// captureReader streams from the live emulator, buffering every record and
// periodically publishing the prefix to followers.
type captureReader struct {
	c        *Cache
	e        *entry
	inner    trace.Reader
	ovf      *trace.Overflow // inner's table (nil: inner has no wide records)
	buf      []trace.Rec
	pub      int   // records already published
	charged  int64 // bytes charged against the budget so far
	done     bool  // completed or aborted
	bypassed bool  // budget pressure: stop buffering, keep streaming
}

// Overflow passes the emulator's table through (see trace.OverflowOf).
func (r *captureReader) Overflow() *trace.Overflow { return r.ovf }

// view snapshots everything buffered so far: the records and the overflow
// table entries they index.
func (r *captureReader) view() *snapshot {
	s := &snapshot{recs: r.buf}
	if r.ovf != nil {
		s.ovf = *r.ovf
	}
	return s
}

// fail publishes the last published prefix as failed, so followers past it
// fall back to live emulation.
func (r *captureReader) fail() {
	prev := r.e.snap.Load()
	r.e.publish(&snapshot{recs: prev.recs, ovf: prev.ovf, failed: true})
}

func (r *captureReader) Next(rec *trace.Rec) bool {
	if !r.inner.Next(rec) {
		if !r.done {
			r.finish()
		}
		return false
	}
	if !r.bypassed {
		r.buf = append(r.buf, *rec)
		if len(r.buf)-r.pub >= publishChunk {
			r.publishChunk(false)
		}
	}
	return true
}

// publishChunk makes the buffered prefix visible and charges it against
// the budget, evicting complete captures under pressure. If the in-flight
// captures alone exceed the budget, this capture aborts (streaming
// continues uncached; followers fall back).
func (r *captureReader) publishChunk(final bool) {
	s := r.view()
	delta := s.bytes() - r.charged
	c := r.c
	c.mu.Lock()
	c.live += delta
	// Evicted streams stay valid for readers already holding their
	// snapshot: the records are immutable and garbage-collected with the
	// last reader.
	c.complete.Trim(c.budget - c.live)
	if c.live > c.budget {
		// Another capture (or this one) outgrew the budget with nothing
		// left to evict; fail this capture open rather than overshoot.
		c.live -= r.charged + delta
		c.capturesAborted++
		delete(c.capturing, r.e.key)
		c.mu.Unlock()
		r.bypassed, r.done = true, true
		r.buf = nil
		r.fail()
		return
	}
	c.mu.Unlock()
	r.charged += delta
	r.pub = len(r.buf)
	if !final {
		r.e.publish(s)
	}
}

// finish publishes the complete stream and moves it into the LRU of
// complete captures. Both happen under the cache mutex, so a new reader
// finds the stream either capturing or complete.
func (r *captureReader) finish() {
	r.publishChunk(true)
	if r.done { // aborted by the final budget check
		return
	}
	r.done = true
	s := r.view()
	s.complete = true
	c := r.c
	c.mu.Lock()
	r.e.publish(s)
	delete(c.capturing, r.e.key)
	c.live -= r.charged
	c.capturesDone++
	c.complete.Put(r.e.key, s, r.charged)
	c.complete.Trim(c.budget - c.live)
	c.mu.Unlock()
}

// release aborts the capture if the stream was not fully consumed (the
// simulation stopped early or panicked); followers fall back to live
// emulation. Safe to call after normal completion, where it is a no-op.
func (r *captureReader) release() {
	if r.done {
		return
	}
	r.done, r.bypassed = true, true
	c := r.c
	c.mu.Lock()
	c.live -= r.charged
	c.capturesAborted++
	delete(c.capturing, r.e.key)
	c.mu.Unlock()
	r.fail()
	r.buf = nil
}

// --- follow ------------------------------------------------------------------

// followReader streams a capture in flight: lock-free over the published
// prefix, parking only when it catches up to the lead, and falling back to
// a fresh emulator if the capture fails.
type followReader struct {
	c        *Cache
	e        *entry
	pos      int
	ovf      trace.Overflow // covers every record delivered so far
	fallback trace.Reader
	fbOvf    *trace.Overflow // the fallback emulator's table
}

// Overflow implements trace.OverflowOf's contract: the table view is
// refreshed whenever a wide record is delivered.
func (r *followReader) Overflow() *trace.Overflow { return &r.ovf }

func (r *followReader) Next(rec *trace.Rec) bool {
	if r.fallback != nil {
		return r.fallbackNext(rec)
	}
	for {
		snap := r.e.snap.Load()
		if r.pos < len(snap.recs) {
			*rec = snap.recs[r.pos]
			r.pos++
			if rec.NDst > trace.InlineDests {
				r.ovf = snap.ovf
			}
			return true
		}
		if snap.complete {
			return false
		}
		if snap.failed {
			r.startFallback()
			return r.fallbackNext(rec)
		}
		// Caught up with the lead: grab the wake channel, then re-check
		// the snapshot so a publication between load and grab is never
		// missed (the publisher stores the snapshot before closing wake).
		r.e.mu.Lock()
		ch := r.e.wake
		r.e.mu.Unlock()
		if r.e.snap.Load() != snap {
			continue
		}
		<-ch
	}
}

// startFallback resumes the stream on a fresh live emulator, discarding
// the records this reader already delivered. The emulator is
// deterministic, so the resumed stream continues exactly where the
// published prefix ended — and its overflow table, rebuilt while skipping,
// matches the published one entry for entry.
func (r *followReader) startFallback() {
	c := r.c
	c.mu.Lock()
	c.fallbacks++
	c.emulations++
	c.mu.Unlock()
	r.fallback = r.e.source()
	r.fbOvf = trace.OverflowOf(r.fallback)
	var skip trace.Rec
	for i := 0; i < r.pos; i++ {
		if !r.fallback.Next(&skip) {
			break
		}
	}
}

func (r *followReader) fallbackNext(rec *trace.Rec) bool {
	if !r.fallback.Next(rec) {
		return false
	}
	if rec.NDst > trace.InlineDests && r.fbOvf != nil {
		r.ovf = *r.fbOvf
	}
	return true
}
