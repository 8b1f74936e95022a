package tracecache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dlvp/internal/isa"
	"dlvp/internal/trace"
)

// synthSource is a deterministic record stream: every reader constructed
// from the same (seed, n) produces the same n records. It counts reader
// constructions so tests can assert single-flight behaviour.
type synthSource struct {
	seed  uint64
	n     uint64
	built atomic.Int64
}

func (s *synthSource) reader() trace.Reader {
	s.built.Add(1)
	return &synthReader{seed: s.seed, n: s.n}
}

func (s *synthSource) expected() []trace.Rec {
	return trace.Collect(&synthReader{seed: s.seed, n: s.n}, 0)
}

type synthReader struct {
	seed, i, n uint64
}

func (r *synthReader) Next(rec *trace.Rec) bool {
	if r.i >= r.n {
		return false
	}
	*rec = trace.Rec{
		PC:   0x1000 + 4*r.i,
		Addr: r.seed ^ (r.i * 8),
	}
	rec.Vals[0] = r.seed + 3*r.i
	r.i++
	return true
}

// wideReader is synthReader with every third record a 6-destination LDM,
// whose destinations past the inline two go to its overflow table.
type wideReader struct {
	synthReader
	ovf trace.Overflow
}

func (r *wideReader) Overflow() *trace.Overflow { return &r.ovf }

func (r *wideReader) Next(rec *trace.Rec) bool {
	i := r.i
	if !r.synthReader.Next(rec) {
		return false
	}
	if i%3 == 0 {
		rec.Op, rec.Flags, rec.NDst = isa.LDM, isa.LDM.Flags(), 6
		var dst [6]isa.Reg
		var vals [6]uint64
		for j := range dst {
			dst[j], vals[j] = isa.Reg(2+j), r.seed*i+uint64(j)
		}
		copy(rec.Dst[:], dst[:])
		copy(rec.Vals[:], vals[:])
		r.ovf.Add(rec, dst[:], vals[:])
	}
	return true
}

func sameRecs(t *testing.T, got, want []trace.Rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stream length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestCaptureThenReplay(t *testing.T) {
	src := &synthSource{seed: 7, n: 2*publishChunk + 123}
	c := New(64 << 20)

	r1, rel1, out1 := c.Reader("w", src.n, src.reader)
	if out1 != OutcomeCapture {
		t.Fatalf("first reader outcome %q, want capture", out1)
	}
	sameRecs(t, trace.Collect(r1, 0), src.expected())
	rel1()

	r2, rel2, out2 := c.Reader("w", src.n, src.reader)
	if out2 != OutcomeReplay {
		t.Fatalf("second reader outcome %q, want replay", out2)
	}
	sameRecs(t, trace.Collect(r2, 0), src.expected())
	rel2()

	if got := src.built.Load(); got != 1 {
		t.Errorf("source constructed %d times, want 1", got)
	}
	s := c.Stats()
	if s.Captures != 1 || s.CapturesDone != 1 || s.Replays != 1 || s.Emulations != 1 {
		t.Errorf("stats %+v: want 1 capture, 1 done, 1 replay, 1 emulation", s)
	}
	if want := int64(src.n) * RecSize; s.ResidentBytes != want || s.Entries != 1 {
		t.Errorf("resident %d bytes / %d entries, want %d / 1", s.ResidentBytes, s.Entries, want)
	}
	if s.CapturingBytes != 0 || s.Capturing != 0 {
		t.Errorf("in-flight accounting not drained: %+v", s)
	}
	if hr := s.HitRatio(); hr != 0.5 {
		t.Errorf("hit ratio %v, want 0.5 (1 replay of 2 readers)", hr)
	}
}

// A reader released before draining its stream must abort the capture and
// leave nothing resident; the next reader re-captures from scratch.
func TestAbandonedCaptureAborts(t *testing.T) {
	src := &synthSource{seed: 11, n: publishChunk * 2}
	c := New(64 << 20)

	r, release, _ := c.Reader("w", src.n, src.reader)
	var rec trace.Rec
	for i := 0; i < publishChunk+5; i++ {
		if !r.Next(&rec) {
			t.Fatal("stream ended early")
		}
	}
	release()
	release() // idempotent

	s := c.Stats()
	if s.CapturesAborted != 1 || s.CapturesDone != 0 || s.Entries != 0 {
		t.Fatalf("after abort: %+v, want 1 aborted, 0 done, 0 entries", s)
	}
	if s.ResidentBytes != 0 || s.CapturingBytes != 0 {
		t.Fatalf("byte accounting leaked after abort: %+v", s)
	}

	r2, rel2, out := c.Reader("w", src.n, src.reader)
	if out != OutcomeCapture {
		t.Fatalf("post-abort outcome %q, want a fresh capture", out)
	}
	sameRecs(t, trace.Collect(r2, 0), src.expected())
	rel2()
	if got := c.Stats().CapturesDone; got != 1 {
		t.Errorf("captures done = %d, want 1", got)
	}
}

// A follower that outlives an abandoned capture falls back to a live
// emulator and still observes the exact full stream.
func TestFollowerFallsBackOpen(t *testing.T) {
	src := &synthSource{seed: 13, n: publishChunk * 3}
	c := New(64 << 20)

	lead, releaseLead, _ := c.Reader("w", src.n, src.reader)
	var rec trace.Rec
	// Publish exactly two chunks, then stall the lead mid-third-chunk.
	for i := 0; i < publishChunk*2+10; i++ {
		lead.Next(&rec)
	}

	follower, relF, out := c.Reader("w", src.n, src.reader)
	if out != OutcomeFollow {
		t.Fatalf("follower outcome %q, want follow", out)
	}
	var got []trace.Rec
	// The follower can consume the published prefix without parking.
	for i := 0; i < publishChunk*2; i++ {
		if !follower.Next(&rec) {
			t.Fatal("published prefix ended early")
		}
		got = append(got, rec)
	}

	releaseLead() // abandon: follower must fail open to live emulation
	for follower.Next(&rec) {
		got = append(got, rec)
	}
	relF()
	sameRecs(t, got, src.expected())

	s := c.Stats()
	if s.Fallbacks != 1 || s.CapturesAborted != 1 {
		t.Errorf("stats %+v: want 1 fallback, 1 aborted", s)
	}
	if s.Emulations != 2 { // lead + the follower's fallback
		t.Errorf("emulations = %d, want 2", s.Emulations)
	}
}

// Concurrent readers over one key: single-flight (one emulation), every
// stream identical, and parked followers are woken by chunk publication.
// CI runs this under -race.
func TestConcurrentReadersSingleFlight(t *testing.T) {
	src := &synthSource{seed: 17, n: publishChunk*4 + 99}
	c := New(64 << 20)
	want := src.expected()

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, release, _ := c.Reader("w", src.n, src.reader)
			defer release()
			got := trace.Collect(r, 0)
			if len(got) != len(want) {
				errs <- "short stream"
				return
			}
			for j := range got {
				if got[j] != want[j] {
					errs <- "stream diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	s := c.Stats()
	if got := src.built.Load(); got != 1 {
		t.Fatalf("source constructed %d times, want 1 (single-flight)", got)
	}
	if s.Emulations != 1 || s.Captures != 1 || s.Replays+s.Follows != readers-1 {
		t.Errorf("stats %+v: want 1 emulation, 1 capture, %d replay+follow", s, readers-1)
	}
}

func TestBypassPaths(t *testing.T) {
	src := &synthSource{seed: 19, n: 64}

	var nilCache *Cache
	r, release, out := nilCache.Reader("w", src.n, src.reader)
	if out != OutcomeBypass {
		t.Fatalf("nil cache outcome %q, want bypass", out)
	}
	sameRecs(t, trace.Collect(r, 0), src.expected())
	release()
	if s := nilCache.Stats(); s != (Stats{}) {
		t.Errorf("nil cache stats %+v, want zero", s)
	}

	zero := New(0)
	if _, rel, out := zero.Reader("w", src.n, src.reader); out != OutcomeBypass {
		t.Errorf("zero-budget outcome %q, want bypass", out)
	} else {
		rel()
	}

	c := New(16 * RecSize)
	if _, rel, out := c.Reader("w", 0, src.reader); out != OutcomeBypass {
		t.Errorf("instrs=0 outcome %q, want bypass", out)
	} else {
		rel()
	}
	if _, rel, out := c.Reader("w", 17, src.reader); out != OutcomeBypass {
		t.Errorf("over-budget outcome %q, want bypass", out)
	} else {
		rel()
	}
	s := c.Stats()
	if s.Bypasses != 2 || s.TooLarge != 1 {
		t.Errorf("stats %+v: want 2 bypasses, 1 too-large (instrs=0 is not too-large)", s)
	}
}

// Completing a second capture under a budget that holds only one stream
// evicts the least-recently-used entry; a reader for the victim re-captures.
func TestEvictionUnderPressure(t *testing.T) {
	const n = publishChunk + 500
	a := &synthSource{seed: 23, n: n}
	b := &synthSource{seed: 29, n: n}
	c := New(int64(n+publishChunk) * RecSize) // one stream + headroom, not two

	ra, relA, _ := c.Reader("a", n, a.reader)
	sameRecs(t, trace.Collect(ra, 0), a.expected())
	relA()
	rb, relB, _ := c.Reader("b", n, b.reader)
	sameRecs(t, trace.Collect(rb, 0), b.expected())
	relB()

	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v: want 1 eviction, 1 resident entry", s)
	}
	if want := int64(n) * RecSize; s.ResidentBytes != want {
		t.Fatalf("resident %d bytes, want %d", s.ResidentBytes, want)
	}

	// "b" survived (most recent); "a" re-captures.
	if _, rel, out := c.Reader("b", n, b.reader); out != OutcomeReplay {
		t.Errorf("survivor outcome %q, want replay", out)
	} else {
		rel()
	}
	if _, rel, out := c.Reader("a", n, a.reader); out != OutcomeCapture {
		t.Errorf("victim outcome %q, want re-capture", out)
	} else {
		rel()
	}
}

// When concurrent captures outgrow the budget with nothing left to evict,
// the later capture fails open: it keeps streaming (uncached) and its
// followers fall back, so correctness never depends on the budget.
func TestCaptureAbortsWhenBudgetExhausted(t *testing.T) {
	const n = publishChunk + 100
	a := &synthSource{seed: 31, n: n}
	b := &synthSource{seed: 37, n: n}
	// Holds one full stream, but not two concurrently published chunks —
	// and with both captures in flight there is nothing resident to evict.
	c := New(int64(publishChunk*3/2) * RecSize)

	ra, relA, _ := c.Reader("a", n, a.reader)
	rb, relB, _ := c.Reader("b", n, b.reader)
	var rec trace.Rec
	gotA := make([]trace.Rec, 0, n)
	gotB := make([]trace.Rec, 0, n)
	// Interleave so both leads publish their first chunk while the other is
	// still in flight: the second publication exceeds the budget and that
	// capture must fail open while its stream keeps flowing.
	for i := 0; i < n; i++ {
		if !ra.Next(&rec) {
			t.Fatal("a ended early")
		}
		gotA = append(gotA, rec)
		if !rb.Next(&rec) {
			t.Fatal("b ended early")
		}
		gotB = append(gotB, rec)
	}
	// Drain past the end so the surviving capture finishes.
	if ra.Next(&rec) || rb.Next(&rec) {
		t.Fatal("stream longer than requested")
	}
	relA()
	relB()
	sameRecs(t, gotA, a.expected())
	sameRecs(t, gotB, b.expected())

	s := c.Stats()
	if s.CapturesDone != 1 || s.CapturesAborted != 1 {
		t.Errorf("stats %+v: want exactly one capture retained, one aborted", s)
	}
	if s.ResidentBytes+s.CapturingBytes > c.Budget() {
		t.Errorf("budget overshoot: %d resident + %d capturing > %d",
			s.ResidentBytes, s.CapturingBytes, c.Budget())
	}
}

func TestKeyEncoding(t *testing.T) {
	keys := map[string]bool{}
	for _, k := range []string{
		Key("gcc", 1), Key("gcc", 256), Key("gcc", 1<<40),
		Key("gc", 1), Key("gcc\x00", 1), Key("", 0),
	} {
		if keys[k] {
			t.Fatalf("key collision for %q", k)
		}
		keys[k] = true
	}
}

func TestNegativeBudgetIsDisabled(t *testing.T) {
	c := New(-5)
	src := &synthSource{seed: 41, n: 8}
	r, rel, out := c.Reader("w", src.n, src.reader)
	if out != OutcomeBypass {
		t.Fatalf("outcome %q, want bypass", out)
	}
	sameRecs(t, trace.Collect(r, 0), src.expected())
	rel()
	if s := c.Stats(); s.Bypasses != 1 || s.BudgetBytes != 0 {
		t.Errorf("stats %+v", s)
	}
}

// A stream's overflow table is charged against the budget with its
// records, and a replay resolves wide records through the published table.
func TestOverflowChargedAndReplayed(t *testing.T) {
	const n = publishChunk + 300
	src := func() trace.Reader { return &wideReader{synthReader: synthReader{seed: 41, n: n}} }
	c := New(64 << 20)
	r, rel, _ := c.Reader("w", n, src)
	var rec trace.Rec
	for r.Next(&rec) {
	}
	rel()

	want := &wideReader{synthReader: synthReader{seed: 41, n: n}}
	wantRecs := trace.Collect(want, 0)
	const wide = (n + 2) / 3
	if got, bytes := c.Stats().ResidentBytes, int64(n)*RecSize+wide*4*(1+8); got != bytes {
		t.Errorf("resident %d bytes, want %d: %d records plus %d wide records' 4 extra destinations", got, bytes, n, wide)
	}
	replay, rel2, out := c.Reader("w", n, src)
	defer rel2()
	if out != OutcomeReplay {
		t.Fatalf("outcome %q, want replay", out)
	}
	got := trace.Collect(replay, 0)
	sameRecs(t, got, wantRecs)
	for i := range got {
		for j := 0; j < int(got[i].NDst); j++ {
			if g, w := got[i].DestValue(j, trace.OverflowOf(replay)), wantRecs[i].DestValue(j, want.Overflow()); g != w {
				t.Fatalf("record %d destination %d: value %d, want %d", i, j, g, w)
			}
		}
	}
}

// TestDefaultBudgetResidency pins the residency figure the README, DESIGN
// and the -trace-cache-bytes help quote: New(512<<20) retains 31 complete
// 300k-instruction captures. The run below scales the budget and the
// stream down by the same factor, which leaves the quotient — and so the
// number of captures retained — unchanged while holding 16 MiB, not 512.
func TestDefaultBudgetResidency(t *testing.T) {
	const (
		budget = 512 << 20
		instrs = 300_000
		scale  = 32 // divides both exactly
		want   = 31
	)
	if got := budget / (instrs * RecSize); got != want {
		t.Fatalf("512 MiB holds %d complete 300k-instruction captures, want %d", got, want)
	}
	c := New(budget / scale)
	var rec trace.Rec
	for k := 0; k < want+2; k++ {
		src := &synthSource{seed: uint64(k), n: instrs / scale}
		r, release, out := c.Reader(fmt.Sprintf("w%d", k), src.n, src.reader)
		if out != OutcomeCapture {
			t.Fatalf("stream %d served as %q, want capture", k, out)
		}
		for r.Next(&rec) {
		}
		release()
	}
	if s := c.Stats(); s.Entries != want || s.Evictions != 2 {
		t.Errorf("%d complete captures resident after %d evictions, want %d after 2", s.Entries, s.Evictions, want)
	}
}
