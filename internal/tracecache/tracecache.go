// Package tracecache is a byte-budgeted, concurrency-safe capture/replay
// cache for functional-emulation trace streams, keyed by (workload,
// instruction budget).
//
// Every experiment matrix sweeps many core configurations over the same
// workloads, yet each timing simulation re-runs the functional emulator
// over an identical instruction stream. The stream is fully determined by
// (workload, instrs) — the emulator takes no configuration — so the cache
// records it once and replays it to every other configuration:
//
//   - the first reader for a key *captures* the stream: it reserves the
//     stream's raw size (instrs × RecSize) against the budget, emulates
//     the whole stream into a compact encoding, and hands it to the LRU of
//     complete captures;
//   - readers that arrive while the capture is in flight *follow* it: they
//     wait for it (single-flight through lru.Do, so one emulation no matter
//     how many configurations ask at once);
//   - later readers *replay* the resident capture with zero re-emulation.
//
// A capture stores what the program fixes per instruction once: each
// distinct static part (PC, opcode, flags, registers, access size) is a
// template, and each record is a 4-byte header, its template's index and
// one flag per dynamic field, followed by only its non-zero dynamic words
// (the address, the two inline values, the overflow offset; a branch's
// direction is a flag). The 43 workloads' 300k-instruction streams take
// about 14 bytes per record this way, against a trace.Rec's 48. Every
// reader decodes the shared capture from its own cursor into the records
// its caller passes to Next.
//
// A capture that cannot reserve its raw size, because the captures in
// flight hold the budget, whose encoding outgrows that size, or whose
// build panics, leaves its readers streaming live from a fresh emulator,
// so a reader always observes the exact stream the live emulator would
// have produced. A capture whose context ends stops within 4096 records
// and stores nothing.
//
// The byte budget bounds resident memory: complete captures live in an
// lru.Cache charged their encoded bytes (headers, words, templates and
// overflow table), the raw sizes of captures in flight are reserved
// against the same budget, and a stream whose raw size cannot fit is
// bypassed to live emulation without buffering. The 512 MiB default holds
// all 43 workloads' 300k-instruction captures, about 185 MB.
package tracecache

import (
	"context"
	"errors"
	"sync"
	"unsafe"

	"dlvp/internal/lru"
	"dlvp/internal/trace"
)

// RecSize is the in-memory size of one trace record: a capture reserves it
// per record of its stream, and is charged it per template.
const RecSize = int64(unsafe.Sizeof(trace.Rec{}))

// checkEvery is how many records a capture encodes between looks at its
// context and its size.
const checkEvery = 4096

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

// errNoRoom fails a capture whose raw size the captures in flight leave
// no room for, and errOutgrown one whose encoding outgrows its raw size;
// the lead and its followers then stream live.
var (
	errNoRoom   = errors.New("tracecache: captures in flight hold the budget")
	errOutgrown = errors.New("tracecache: the encoded stream outgrew its reservation")
)

// Stats is a snapshot of the cache counters.
type Stats struct {
	BudgetBytes    int64 `json:"budget_bytes"`
	ResidentBytes  int64 `json:"resident_bytes"`  // complete captures held
	CapturingBytes int64 `json:"capturing_bytes"` // raw sizes reserved by captures in flight
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
	// complete holds the completed captures, charged their encoded
	// bytes. Its resident bytes plus reserved never exceed budget.
	complete *lru.Cache[*stream]

	mu        sync.Mutex // taken before complete's own lock
	reserved  int64      // raw sizes of the captures in flight
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
	return &Cache{budget: budget, complete: lru.New[*stream](budget)}
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
// release function, and the outcome describing how the stream is served.
// source constructs a fresh live emulation stream of at most instrs
// records; the cache calls it for captures and bypasses only.
//
// The returned reader produces exactly the records source() would,
// regardless of outcome. A capture emulates the whole stream before Reader
// returns, and a follower blocks until that capture is done. Reader is
// ReaderContext without a context to end it; the release function does
// nothing, since every reader is its own cursor over an immutable capture.
func (c *Cache) Reader(workload string, instrs uint64, source func() trace.Reader) (trace.Reader, func(), Outcome) {
	r, outcome, _ := c.ReaderContext(context.TODO(), workload, instrs, source)
	return r, func() {}, outcome
}

// ReaderContext is Reader for a caller that may give up: once ctx ends, a
// capture it leads stops within checkEvery records, gives its reservation
// back and stores nothing, a wait for another caller's capture ends, and
// ReaderContext returns ctx's error. A follower whose own context is still
// live then captures the stream itself.
func (c *Cache) ReaderContext(ctx context.Context, workload string, instrs uint64, source func() trace.Reader) (trace.Reader, Outcome, error) {
	// An unbounded stream (instrs == 0) or one whose raw size cannot fit
	// is never buffered. The bound is conservative: a program that halts
	// early would have fit, but workload kernels run forever and always
	// fill their budget. The comparison stays in uint64, where a budget of
	// 2^63 instructions or more cannot wrap.
	if c == nil || instrs == 0 || instrs > uint64(c.budget/RecSize) {
		c.bypass(instrs != 0 && c.Budget() > 0)
		return source(), OutcomeBypass, nil
	}
	s, how, err := c.complete.Do(ctx, Key(workload, instrs),
		func(ctx context.Context) (*stream, int64, error) { return c.capture(ctx, instrs, source) })
	if how == lru.Miss && err == nil {
		// capture returned holding c.mu, and Do has stored the stream:
		// the reservation went in the same critical section.
		c.mu.Unlock()
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		c.bypass(false)
		return source(), OutcomeBypass, nil
	}
	outcome := OutcomeReplay
	switch how {
	case lru.Miss:
		outcome = OutcomeCapture
	case lru.Coalesced:
		outcome = OutcomeFollow
	}
	return &replay{s: s}, outcome, nil
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

// capture is the lead's build under lru.Do. It reserves the stream's raw
// size, trimming complete captures to make room, and encodes the stream,
// failing when the encoding outgrows the reservation or ctx ends. Either
// way, the stream it returns is never larger than what it reserved, so
// storing it keeps resident plus reserved bytes within the budget. On
// success it returns with c.mu held, the reservation already released, so
// that ReaderContext can let Do store the stream before any other
// reservation or Stats call sees the budget.
func (c *Cache) capture(ctx context.Context, instrs uint64, source func() trace.Reader) (s *stream, cost int64, err error) {
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
		if s == nil { // failed or panicked: give the reservation back
			c.mu.Lock()
			c.reserved -= bound
			c.capturing--
			c.mu.Unlock()
		}
	}()

	src := source()
	ovf := trace.OverflowOf(src)
	if ovf == nil {
		ovf = new(trace.Overflow)
	}
	e := newEncoder(int(instrs))
	var rec trace.Rec
	for e.n < len(e.s.hdr) {
		if e.n%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			if e.bytes(ovf) > bound {
				return nil, 0, errOutgrown
			}
		}
		if !src.Next(&rec) {
			break
		}
		if !e.add(&rec) {
			return nil, 0, errOutgrown
		}
	}
	if e.bytes(ovf) > bound {
		return nil, 0, errOutgrown
	}
	st := e.finish(ovf)

	c.mu.Lock() // ReaderContext unlocks it once Do has stored st
	c.reserved -= bound
	c.capturing--
	c.capturesDone++
	return st, st.bytes(), nil
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
