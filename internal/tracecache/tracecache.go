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
//   - the first reader for a key *captures* the stream: it reserves the
//     stream's upper bound (instrs × RecSize) against the budget, emulates
//     the whole stream into one buffer of that many records, and hands the
//     buffer to the LRU of complete captures;
//   - readers that arrive while the capture is in flight *follow* it: they
//     wait for it (single-flight through lru.Do, so one emulation no matter
//     how many configurations ask at once);
//   - later readers *replay* the resident capture with zero re-emulation.
//
// All three are served as a *trace.SliceReader whose records the core
// indexes in place. A capture that cannot reserve its bound, because the
// captures in flight hold the budget, or whose build panics, leaves its
// readers streaming live from a fresh emulator, so a reader always
// observes the exact stream the live emulator would have produced.
//
// The byte budget bounds resident memory: complete captures (records plus
// overflow table) live in an lru.Cache charged their bytes, the bounds of
// in-flight captures are reserved against the same budget, and a stream
// whose bound cannot fit is bypassed to live emulation without buffering.
// The 512 MiB default thus retains 31 complete 300k-instruction captures.
package tracecache

import (
	"context"
	"errors"
	"slices"
	"sync"
	"unsafe"

	"dlvp/internal/lru"
	"dlvp/internal/trace"
)

// RecSize is the in-memory size of one buffered trace record; the byte
// budget charges it per record, plus each stream's overflow-table bytes.
const RecSize = int64(unsafe.Sizeof(trace.Rec{}))

// Outcome classifies how a Reader call was served.
type Outcome string

const (
	// OutcomeCapture: this reader emulated the stream into the cache.
	OutcomeCapture Outcome = "capture"
	// OutcomeReplay: served entirely from a completed capture.
	OutcomeReplay Outcome = "replay"
	// OutcomeFollow: waited for a capture in flight, then replayed it.
	OutcomeFollow Outcome = "follow"
	// OutcomeBypass: served by live emulation without recording (cache
	// disabled, zero budget, a stream that cannot fit the budget, or a
	// capture that could not reserve its bound).
	OutcomeBypass Outcome = "bypass"
)

// errNoRoom fails a capture whose bound the captures in flight leave no
// room for; the lead and its followers then stream live.
var errNoRoom = errors.New("tracecache: captures in flight hold the budget")

// Stats is a snapshot of the cache counters.
type Stats struct {
	BudgetBytes    int64 `json:"budget_bytes"`
	ResidentBytes  int64 `json:"resident_bytes"`  // complete captures held
	CapturingBytes int64 `json:"capturing_bytes"` // bounds reserved by captures in flight
	Entries        int   `json:"entries"`         // complete captures resident
	Capturing      int   `json:"capturing"`       // captures in flight now
	Captures       int64 `json:"captures"`        // captures started (one emulation each)
	CapturesDone   int64 `json:"captures_done"`   // captures that completed and went to the LRU
	Replays        int64 `json:"replays"`         // readers served from a complete capture
	Follows        int64 `json:"follows"`         // readers that waited for a capture in flight
	Bypasses       int64 `json:"bypasses"`
	Evictions      int64 `json:"evictions"`
	TooLarge       int64 `json:"too_large"`  // streams whose bound exceeds the budget
	Emulations     int64 `json:"emulations"` // live emulator streams constructed
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
	// complete holds the completed captures, charged their bytes. Its
	// resident bytes plus reserved never exceed budget.
	complete *lru.Cache[*trace.SliceReader]

	mu        sync.Mutex // taken before complete's own lock
	reserved  int64      // bounds of the captures in flight
	capturing int

	captures     int64
	capturesDone int64
	bypasses     int64
	tooLarge     int64
}

// New returns a cache retaining up to budget bytes of trace records.
// A non-positive budget yields a cache that bypasses everything (every
// reader is live emulation), which keeps callers free of nil checks.
func New(budget int64) *Cache {
	budget = max(budget, 0)
	return &Cache{budget: budget, complete: lru.New[*trace.SliceReader](budget)}
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
// fresh live emulation stream of at most instrs records; the cache calls
// it for captures and bypasses only.
//
// The returned reader produces exactly the records source() would,
// regardless of outcome. A capture emulates the whole stream before Reader
// returns, and a follower blocks until that capture is done.
func (c *Cache) Reader(workload string, instrs uint64, source func() trace.Reader) (trace.Reader, func(), Outcome) {
	nop := func() {}
	// An unbounded stream (instrs == 0) or one whose upper bound cannot
	// fit is never buffered. The bound is conservative: a program that
	// halts early would have fit, but workload kernels run forever and
	// always fill their budget. The comparison stays in uint64, where a
	// budget of 2^63 instructions or more cannot wrap.
	if c == nil || instrs == 0 || instrs > uint64(c.budget/RecSize) {
		c.bypass(instrs != 0 && c.Budget() > 0)
		return source(), nop, OutcomeBypass
	}
	s, how, err := c.complete.Do(context.TODO(), Key(workload, instrs),
		func(context.Context) (*trace.SliceReader, int64, error) { return c.capture(instrs, source) })
	if how == lru.Miss && err == nil {
		// capture returned holding c.mu, and Do has stored the buffer: the
		// reservation went in the same critical section. Trim to what the
		// other captures in flight reserve, since the overflow table can
		// make a capture outgrow its bound.
		c.complete.Trim(c.budget - c.reserved)
		c.mu.Unlock()
	}
	if err != nil {
		c.bypass(false)
		return source(), nop, OutcomeBypass
	}
	outcome := OutcomeReplay
	switch how {
	case lru.Miss:
		outcome = OutcomeCapture
	case lru.Coalesced:
		outcome = OutcomeFollow
	}
	return s.Replay(), nop, outcome
}

// bypass counts a reader served by live emulation.
func (c *Cache) bypass(tooLarge bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.bypasses++
	if tooLarge {
		c.tooLarge++
	}
	c.mu.Unlock()
}

// capture is the lead's build under lru.Do. It reserves the stream's bound,
// trimming complete captures to make room, and emulates the stream into
// one buffer. On success it returns with c.mu held, the reservation
// already released, so that Reader can let Do store the buffer before any
// other reservation or Stats call sees the budget.
func (c *Cache) capture(instrs uint64, source func() trace.Reader) (s *trace.SliceReader, cost int64, err error) {
	bound := int64(instrs) * RecSize // instrs <= budget/RecSize: no overflow
	c.mu.Lock()
	if c.reserved+bound > c.budget {
		c.mu.Unlock()
		return nil, 0, errNoRoom
	}
	c.reserved += bound
	c.capturing++
	c.captures++
	c.complete.Trim(c.budget - c.reserved)
	c.mu.Unlock()
	defer func() {
		if s == nil { // the build panicked: give the reservation back
			c.mu.Lock()
			c.reserved -= bound
			c.capturing--
			c.mu.Unlock()
		}
	}()

	src := source()
	recs := make([]trace.Rec, instrs)
	n := 0
	for n < len(recs) && src.Next(&recs[n]) {
		n++
	}
	if n < len(recs) { // the program halted early: keep only its records
		recs = slices.Clone(recs[:n])
	}
	// A copy of the table, so the capture does not keep the emulator alive.
	ovf := new(trace.Overflow)
	if o := trace.OverflowOf(src); o != nil {
		*ovf = *o
	}
	s = &trace.SliceReader{Recs: recs, Ovf: ovf}

	c.mu.Lock() // Reader unlocks it once Do has stored s
	c.reserved -= bound
	c.capturing--
	c.capturesDone++
	return s, int64(len(recs))*RecSize + ovf.Bytes(), nil
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
		BudgetBytes:    c.budget,
		ResidentBytes:  cs.Cost,
		CapturingBytes: c.reserved,
		Entries:        cs.Len,
		Capturing:      c.capturing,
		Captures:       c.captures,
		CapturesDone:   c.capturesDone,
		Replays:        cs.Hits,
		Follows:        cs.Coalesced,
		Bypasses:       c.bypasses,
		Evictions:      cs.Evictions,
		TooLarge:       c.tooLarge,
		Emulations:     c.captures + c.bypasses,
	}
}
