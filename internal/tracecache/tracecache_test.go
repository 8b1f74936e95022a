package tracecache

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlvp/internal/isa"
	"dlvp/internal/trace"
)

// synthSource is a deterministic record stream: every reader constructed
// from the same (seed, n) produces the same n records, looping over
// synthLoop PCs as a program does. It counts reader constructions so tests
// can assert single-flight behaviour.
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

// synthLoop is the number of distinct PCs a synthetic stream cycles
// through, a multiple of wideReader's period of 3 so that every PC keeps
// one static part.
const synthLoop = 96

type synthReader struct {
	seed, i, n uint64
}

func (r *synthReader) Next(rec *trace.Rec) bool {
	if r.i >= r.n {
		return false
	}
	*rec = trace.Rec{
		PC:   0x1000 + 4*(r.i%synthLoop),
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

// distinctReader is synthReader with a PC of its own on every record: each
// record needs a template, so its encoding is larger than its raw records.
type distinctReader struct{ synthReader }

func (r *distinctReader) Next(rec *trace.Rec) bool {
	i := r.i
	if !r.synthReader.Next(rec) {
		return false
	}
	rec.PC = 0x1000 + 4*i
	return true
}

// wantCharge is what a capture of recs, with ovf as its overflow table,
// is charged: a 4-byte header per record, its non-zero dynamic words and
// four words of padding, one template per PC each time that PC's static
// part differs from its previous one, and the overflow table.
func wantCharge(recs []trace.Rec, ovf *trace.Overflow) int64 {
	latest := map[uint64]trace.Rec{}
	var tmpls, words int64
	for _, r := range recs {
		st := r
		st.Addr, st.Vals, st.Ext, st.Taken = 0, [trace.InlineDests]uint64{}, 0, false
		if l, ok := latest[r.PC]; !ok || l != st {
			latest[r.PC] = st
			tmpls++
		}
		for _, w := range []uint64{r.Addr, r.Vals[0], r.Vals[1], uint64(r.Ext)} {
			if w != 0 {
				words++
			}
		}
	}
	charge := 4*int64(len(recs)) + 8*(words+wordPad) + RecSize*tmpls
	if ovf != nil {
		charge += ovf.Bytes()
	}
	return charge
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

// OpenDuringCapture calls open on a fresh cache from newCache while
// another reader is capturing (workload, instrs) there with leadSource, and
// returns the cache, open's outcome and what the capturing Reader call
// panicked with (nil if it returned). The capture's source is held until
// open has had wait to reach the cache's flight. An open that arrived
// after the flight had ended anyway, and so replayed the capture or
// captured on its own, is retried with twice the wait: the outcome is a
// follow or a bypass however the goroutines are scheduled. It is exported
// for the external test package's lossless paths.
func OpenDuringCapture(newCache func() *Cache, workload string, instrs uint64,
	leadSource func() trace.Reader, open func(*Cache) Outcome) (c *Cache, out Outcome, leadPanic any) {
	for wait := time.Millisecond; ; wait *= 2 {
		c = newCache()
		held, hold := make(chan struct{}), make(chan struct{})
		led := make(chan any, 1)
		go func() {
			defer func() { led <- recover() }()
			_, release, _ := c.Reader(workload, instrs, func() trace.Reader {
				close(held)
				<-hold
				return leadSource()
			})
			release()
		}()
		<-held
		opened := make(chan struct{})
		go func() {
			defer close(opened)
			out = open(c)
		}()
		time.Sleep(wait)
		close(hold)
		<-opened
		leadPanic = <-led
		if (out != OutcomeReplay && out != OutcomeCapture) || wait > time.Second {
			return c, out, leadPanic
		}
	}
}

func TestCaptureThenReplay(t *testing.T) {
	src := &synthSource{seed: 7, n: 8315}
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
	if want := wantCharge(src.expected(), nil); s.ResidentBytes != want || s.Entries != 1 {
		t.Errorf("resident %d bytes / %d entries, want %d / 1", s.ResidentBytes, s.Entries, want)
	}
	if raw := int64(src.n) * RecSize; s.ResidentBytes >= raw/2 {
		t.Errorf("resident %d bytes, want under half the raw records' %d", s.ResidentBytes, raw)
	}
	if s.CapturingBytes != 0 || s.Capturing != 0 {
		t.Errorf("in-flight accounting not drained: %+v", s)
	}
	if hr := s.HitRatio(); hr != 0.5 {
		t.Errorf("hit ratio %v, want 0.5 (1 replay of 2 readers)", hr)
	}
}

// A capture is complete before Reader returns, so a reader released before
// it drains its stream leaves the whole capture resident, and the next
// reader replays it without emulating again.
func TestReleasedReaderKeepsCapture(t *testing.T) {
	src := &synthSource{seed: 11, n: 8192}
	c := New(64 << 20)

	r, release, _ := c.Reader("w", src.n, src.reader)
	var rec trace.Rec
	for i := 0; i < 4101; i++ {
		if !r.Next(&rec) {
			t.Fatal("stream ended early")
		}
	}
	release()
	release() // idempotent

	s := c.Stats()
	if s.CapturesDone != 1 || s.Entries != 1 || s.ResidentBytes != wantCharge(src.expected(), nil) {
		t.Fatalf("after an early release: %+v, want the complete capture resident", s)
	}
	if s.CapturingBytes != 0 || s.Capturing != 0 {
		t.Fatalf("reservation leaked: %+v", s)
	}

	r2, rel2, out := c.Reader("w", src.n, src.reader)
	if out != OutcomeReplay {
		t.Fatalf("next reader outcome %q, want replay", out)
	}
	sameRecs(t, trace.Collect(r2, 0), src.expected())
	rel2()
	if got := c.Stats().Emulations; got != 1 {
		t.Errorf("emulations = %d, want 1", got)
	}
}

// A capture whose build panics gives its reservation back and leaves a
// reader waiting on it streaming live (fail-open): that reader still sees
// the exact stream, and the next reader captures afresh.
func TestPanickingCaptureFailsOpen(t *testing.T) {
	src := &synthSource{seed: 43, n: 5000}
	var got []trace.Rec
	c, out, leadPanic := OpenDuringCapture(func() *Cache { return New(64 << 20) }, "w", src.n,
		func() trace.Reader { panic("emulator fault") },
		func(c *Cache) Outcome {
			r, release, out := c.Reader("w", src.n, src.reader)
			defer release()
			got = trace.Collect(r, 0)
			return out
		})
	if leadPanic != "emulator fault" {
		t.Fatalf("capturing reader panicked with %v, want the build's panic", leadPanic)
	}
	if out != OutcomeBypass {
		t.Fatalf("waiting reader outcome %q, want bypass", out)
	}
	sameRecs(t, got, src.expected())
	s := c.Stats()
	if s.Captures != 1 || s.CapturesDone != 0 || s.Bypasses != 1 || s.Entries != 0 {
		t.Errorf("stats %+v: want 1 capture started, none done, 1 bypass, nothing resident", s)
	}
	if s.CapturingBytes != 0 || s.Capturing != 0 {
		t.Errorf("the panicked capture kept its reservation: %+v", s)
	}
	r, release, out := c.Reader("w", src.n, src.reader)
	defer release()
	if out != OutcomeCapture {
		t.Fatalf("next reader outcome %q, want a fresh capture", out)
	}
	sameRecs(t, trace.Collect(r, 0), src.expected())
}

// Concurrent readers over one key: single-flight (one emulation), and
// every stream identical, each decoded from its own cursor over the one
// capture. CI runs this under -race.
func TestConcurrentReadersSingleFlight(t *testing.T) {
	src := &synthSource{seed: 17, n: 16483}
	c := New(64 << 20)
	want := src.expected()

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, release, out := c.Reader("w", src.n, src.reader)
			defer release()
			if !slices.Equal(trace.Collect(r, 0), want) {
				errs <- fmt.Sprintf("%s stream diverged", out)
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
	// A budget of 2^63 instructions or more is over budget too, not a
	// negative bound and a buffer size out of range.
	for _, instrs := range []uint64{1 << 63, math.MaxUint64} {
		r, rel, out := c.Reader("w", instrs, src.reader)
		if out != OutcomeBypass {
			t.Errorf("instrs=%d outcome %q, want bypass", instrs, out)
		}
		sameRecs(t, trace.Collect(r, 0), src.expected())
		rel()
	}
	s := c.Stats()
	if s.Bypasses != 4 || s.TooLarge != 3 {
		t.Errorf("stats %+v: want 4 bypasses, 3 too-large (instrs=0 is not too-large)", s)
	}
}

// A second capture, whose reservation leaves room for only half of the
// first capture's encoding, evicts the least-recently-used entry; a reader
// for the victim re-captures.
func TestEvictionUnderPressure(t *testing.T) {
	const n = 4596
	a := &synthSource{seed: 23, n: n}
	b := &synthSource{seed: 29, n: n}
	c := New(n*RecSize + wantCharge(a.expected(), nil)/2)

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
	if want := wantCharge(b.expected(), nil); s.ResidentBytes != want {
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

// Two captures that cannot both fit the budget never hold it at once:
// while the first capture holds its bound, the second cannot reserve and
// streams live, and both readers still see their exact streams.
func TestCaptureAbortsWhenBudgetExhausted(t *testing.T) {
	const n = 4196
	a := &synthSource{seed: 31, n: n}
	b := &synthSource{seed: 37, n: n}
	c := New(int64(n*3/2) * RecSize) // one stream's bound, not two

	held, hold := make(chan struct{}), make(chan struct{})
	gotA := make(chan []trace.Rec, 1)
	go func() {
		r, release, out := c.Reader("a", n, func() trace.Reader {
			close(held)
			<-hold // until the second Reader call has been made
			return a.reader()
		})
		defer release()
		if out != OutcomeCapture {
			t.Errorf("first reader outcome %q, want capture", out)
		}
		gotA <- trace.Collect(r, 0)
	}()
	<-held
	if s := c.Stats(); s.Capturing != 1 || s.CapturingBytes != n*RecSize {
		t.Fatalf("capture in flight: %+v, want one bound of %d bytes reserved", s, n*RecSize)
	}
	rb, relB, out := c.Reader("b", n, b.reader)
	close(hold)
	if out != OutcomeBypass {
		t.Errorf("second reader outcome %q, want bypass", out)
	}
	sameRecs(t, trace.Collect(rb, 0), b.expected())
	relB()
	sameRecs(t, <-gotA, a.expected())

	s := c.Stats()
	if s.CapturesDone != 1 || s.Bypasses != 1 || s.TooLarge != 0 || s.Emulations != 2 {
		t.Errorf("stats %+v: want one capture retained and one bypass that is not too large", s)
	}
	if s.ResidentBytes+s.CapturingBytes > c.Budget() {
		t.Errorf("budget overshoot: %d resident + %d capturing > %d",
			s.ResidentBytes, s.CapturingBytes, c.Budget())
	}
}

// Readers of more streams than the budget holds, all at once: resident
// plus reserved bytes never exceed the budget at any Stats snapshot,
// whichever captures win their reservations, and every reader sees its
// exact stream. CI runs this under -race.
func TestBudgetHoldsUnderConcurrentCaptures(t *testing.T) {
	const n, streams, readers = 3000, 6, 4
	srcs := make([]*synthSource, streams)
	for i := range srcs {
		srcs[i] = &synthSource{seed: uint64(53 + i), n: n}
	}
	c := New(n * 5 / 2 * RecSize) // two streams' bounds, not three

	stop, polled := make(chan struct{}), make(chan string, 1)
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := c.Stats(); s.ResidentBytes+s.CapturingBytes > s.BudgetBytes {
				polled <- fmt.Sprintf("%d resident + %d reserved > %d", s.ResidentBytes, s.CapturingBytes, s.BudgetBytes)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan string, readers*2*streams)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2*streams; k++ {
				src := srcs[(g+k)%streams]
				r, release, out := c.Reader(fmt.Sprint(src.seed), n, src.reader)
				if !slices.Equal(trace.Collect(r, 0), src.expected()) {
					errs <- fmt.Sprintf("stream %d served as %s diverged", src.seed, out)
				}
				release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if msg, over := <-polled; over {
		t.Errorf("budget overshoot: %s", msg)
	}
	s := c.Stats()
	if total := s.Captures + s.Bypasses + s.Replays + s.Follows; total != readers*2*streams {
		t.Errorf("stats %+v: outcomes sum to %d, want %d readers", s, total, readers*2*streams)
	}
	if s.Capturing != 0 || s.CapturingBytes != 0 || s.CapturesDone != s.Captures {
		t.Errorf("in-flight accounting not drained: %+v", s)
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
// records, and a replay resolves wide records through the captured table,
// a copy that does not keep the source reader alive.
func TestOverflowChargedAndReplayed(t *testing.T) {
	const n = 4396
	var live *wideReader
	src := func() trace.Reader {
		live = &wideReader{synthReader: synthReader{seed: 41, n: n}}
		return live
	}
	c := New(64 << 20)
	r, rel, _ := c.Reader("w", n, src)
	if trace.OverflowOf(r) == &live.ovf {
		t.Error("the capture shares its source reader's overflow table")
	}
	var rec trace.Rec
	for r.Next(&rec) {
	}
	rel()

	want := &wideReader{synthReader: synthReader{seed: 41, n: n}}
	wantRecs := trace.Collect(want, 0)
	const wide = (n + 2) / 3
	if got, bytes := c.Stats().ResidentBytes, wantCharge(wantRecs, nil)+wide*4*(1+8); got != bytes {
		t.Errorf("resident %d bytes, want %d: the encoded records plus %d wide records' 4 extra destinations", got, bytes, wide)
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

// A stream whose encoding outgrows its reservation, here one with a PC of
// its own on every record, fails open: its reader streams live and sees
// the exact stream, the reservation is given back and nothing is stored.
func TestOutgrownCaptureFailsOpen(t *testing.T) {
	const n = 5000
	build := func() trace.Reader { return &distinctReader{synthReader{seed: 47, n: n}} }
	want := trace.Collect(build(), 0)
	if charge, raw := wantCharge(want, nil), int64(n)*RecSize; charge <= raw {
		t.Fatalf("the stream encodes to %d bytes, want more than its %d raw bytes", charge, raw)
	}
	c := New(64 << 20)
	r, release, out := c.Reader("w", n, build)
	defer release()
	if out != OutcomeBypass {
		t.Fatalf("outcome %q, want bypass", out)
	}
	sameRecs(t, trace.Collect(r, 0), want)
	s := c.Stats()
	if s.Captures != 1 || s.CapturesDone != 0 || s.Bypasses != 1 || s.TooLarge != 0 || s.Entries != 0 {
		t.Errorf("stats %+v: want 1 capture started, none done, 1 bypass that is not too large, nothing resident", s)
	}
	if s.CapturingBytes != 0 || s.Capturing != 0 {
		t.Errorf("the outgrown capture kept its reservation: %+v", s)
	}
}

// countingReader counts the records it delivers and calls cancel once it
// has delivered at.
type countingReader struct {
	trace.Reader
	n, at  int
	cancel func()
}

func (r *countingReader) Next(rec *trace.Rec) bool {
	if !r.Reader.Next(rec) {
		return false
	}
	if r.n++; r.n == r.at {
		r.cancel()
	}
	return true
}

// A capture whose context ends stops within checkEvery records, gives its
// reservation back and stores nothing, and its caller gets the context's
// error.
func TestCancelledCaptureStoresNothing(t *testing.T) {
	const n, at = 1_000_000, 10_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &countingReader{Reader: &synthReader{seed: 61, n: n}, at: at, cancel: cancel}
	c := New(64 << 20)
	r, _, err := c.ReaderContext(ctx, "w", n, func() trace.Reader { return src })
	if !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("ReaderContext = %v, %v; want no reader and context.Canceled", r, err)
	}
	if src.n > at+checkEvery {
		t.Errorf("the capture read %d records, want at most %d", src.n, at+checkEvery)
	}
	s := c.Stats()
	if s.Entries != 0 || s.CapturesDone != 0 || s.CapturingBytes != 0 || s.Capturing != 0 || s.ResidentBytes != 0 {
		t.Errorf("stats %+v: want nothing stored and nothing reserved", s)
	}
}

// A reader waiting on a capture whose own caller gave up is not bound by
// that: with its context live, it captures the stream itself and sees it
// exactly.
func TestFollowerOutlivesCancelledCapture(t *testing.T) {
	src := &synthSource{seed: 67, n: 20_000}
	c := New(64 << 20)
	leadCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	held, hold := make(chan struct{}), make(chan struct{})
	leadErr := make(chan error, 1)
	go func() {
		_, _, err := c.ReaderContext(leadCtx, "w", src.n, func() trace.Reader {
			close(held)
			<-hold
			return &countingReader{Reader: src.reader(), at: 100, cancel: cancel}
		})
		leadErr <- err
	}()
	<-held
	type opened struct {
		recs []trace.Rec
		out  Outcome
		err  error
	}
	follow := make(chan opened, 1)
	go func() {
		r, out, err := c.ReaderContext(context.Background(), "w", src.n, src.reader)
		var recs []trace.Rec
		if err == nil {
			recs = trace.Collect(r, 0)
		}
		follow <- opened{recs, out, err}
	}()
	// The follower arrives during the flight, most likely; if it comes
	// later, it captures after the lead's failure, which it must also do.
	time.Sleep(10 * time.Millisecond)
	close(hold)
	if err := <-leadErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled capture returned %v, want context.Canceled", err)
	}
	f := <-follow
	if f.err != nil || f.out != OutcomeCapture {
		t.Fatalf("live follower: outcome %q, error %v; want its own capture", f.out, f.err)
	}
	sameRecs(t, f.recs, src.expected())
	if s := c.Stats(); s.Captures != 2 || s.CapturesDone != 1 || s.Entries != 1 || s.CapturingBytes != 0 {
		t.Errorf("stats %+v: want 2 captures started, the follower's stored", s)
	}
}

// fuzzStream builds a record stream from data, a few bytes per record:
// PCs that repeat and PCs of their own, PCs whose static part changes,
// HALT records, zero and non-zero words, and LDMs wide enough to need
// overflow entries.
func fuzzStream(data []byte) ([]trace.Rec, *trace.Overflow) {
	ovf := new(trace.Overflow)
	var recs []trace.Rec
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 {
		b := next()
		if b < 128 {
			return 0
		}
		return uint64(b)<<(8*(b&7)) | uint64(len(recs))
	}
	for len(data) > 0 && len(recs) < 2048 {
		b := next()
		var r trace.Rec
		switch pc := b & 7; {
		case pc < 5:
			r.PC = 0x1000 + 4*uint64(pc) // a loop
		case pc == 5:
			r.PC = 0x8000 + 4*uint64(len(recs)) // a PC of its own
		default:
			r.PC = uint64(next()) << 2 // anywhere, 0 included
		}
		switch op := []isa.Op{isa.ADD, isa.LDR, isa.CBNZ, isa.HALT}[b>>3&3]; op {
		case isa.LDR:
			r.Op, r.Flags, r.Bytes, r.NDst, r.Dst[0] = op, op.Flags(), 8, 1, isa.Reg(next()%31)
		case isa.CBNZ:
			r.Op, r.Flags, r.Taken = op, op.Flags(), b&0x80 != 0
		default:
			r.Op, r.Flags = op, op.Flags()
		}
		if b&0x20 != 0 { // a static part its PC did not have before
			r.NSrc, r.Src[0] = 1, isa.Reg(next()%31)
		}
		r.Addr, r.Vals[0], r.Vals[1] = word(), word(), word()
		if b&0x40 != 0 {
			n := 3 + int(next()%(trace.MaxDests-2))
			r.Op, r.Flags, r.NDst, r.Bytes = isa.LDM, isa.LDM.Flags(), uint8(n), uint8(8*n)
			var dst [trace.MaxDests]isa.Reg
			var vals [trace.MaxDests]uint64
			for j := 0; j < n; j++ {
				dst[j], vals[j] = isa.Reg(j), word()
			}
			copy(r.Dst[:], dst[:])
			copy(r.Vals[:], vals[:])
			ovf.Add(&r, dst[:n], vals[:n])
		}
		recs = append(recs, r)
	}
	return recs, ovf
}

// sameStream fails unless r delivers recs, with every destination register
// and value resolved through r's overflow table as through ovf.
func sameStream(t *testing.T, how string, r trace.Reader, recs []trace.Rec, ovf *trace.Overflow) {
	t.Helper()
	got := trace.Collect(r, 0)
	sameRecs(t, got, recs)
	rovf := trace.OverflowOf(r)
	for i := range got {
		for j := 0; j < int(got[i].NDst); j++ {
			if got[i].DestReg(j, rovf) != recs[i].DestReg(j, ovf) || got[i].DestValue(j, rovf) != recs[i].DestValue(j, ovf) {
				t.Fatalf("%s: record %d destination %d differs", how, i, j)
			}
		}
	}
}

// FuzzCapture holds the capture format to its source on fuzzed streams: a
// capture, a follower and a replay each deliver the source stream record
// for record, overflow entries included. A capture fits a budget of its
// raw size exactly when its charge does, the charge is what Stats shows,
// and resident plus reserved bytes never exceed the budget.
func FuzzCapture(f *testing.F) {
	f.Add([]byte{0, 8, 200, 201, 0, 1, 9, 130, 0, 0, 2, 16, 0, 0, 0})
	f.Add([]byte{0x46, 3, 250, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x20, 5, 0x24, 6, 24})
	f.Add([]byte{5, 200, 200, 200, 5, 201, 201, 201, 6, 0, 0, 0, 0, 0x9a, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, ovf := fuzzStream(data)
		if len(recs) == 0 {
			return
		}
		n := uint64(len(recs))
		src := func() trace.Reader { return &trace.SliceReader{Recs: recs, Ovf: ovf} }
		budget := int64(n) * RecSize
		fits := wantCharge(recs, ovf) <= budget
		checkBudget := func(c *Cache) {
			t.Helper()
			if s := c.Stats(); s.ResidentBytes+s.CapturingBytes > s.BudgetBytes {
				t.Fatalf("%d resident + %d reserved > %d", s.ResidentBytes, s.CapturingBytes, s.BudgetBytes)
			}
		}

		c := New(budget)
		r, release, out := c.Reader("w", n, src)
		if want := map[bool]Outcome{true: OutcomeCapture, false: OutcomeBypass}[fits]; out != want {
			t.Fatalf("outcome %q, want %q (charge %d, budget %d)", out, want, wantCharge(recs, ovf), budget)
		}
		sameStream(t, string(out), r, recs, ovf)
		release()
		checkBudget(c)
		if fits {
			if s := c.Stats(); s.ResidentBytes != wantCharge(recs, ovf) || s.Entries != 1 {
				t.Fatalf("resident %d bytes in %d entries, want %d in 1", s.ResidentBytes, s.Entries, wantCharge(recs, ovf))
			}
			r, release, out = c.Reader("w", n, src)
			if out != OutcomeReplay {
				t.Fatalf("second reader outcome %q, want replay", out)
			}
			sameStream(t, "replay", r, recs, ovf)
			release()
		}

		var follower []trace.Rec
		var fovf *trace.Overflow
		c, out, _ = OpenDuringCapture(func() *Cache { return New(budget) }, "w", n, src, func(c *Cache) Outcome {
			r, release, out := c.Reader("w", n, src)
			defer release()
			follower, fovf = trace.Collect(r, 0), trace.OverflowOf(r)
			return out
		})
		if fits && out != OutcomeFollow || !fits && out != OutcomeBypass {
			t.Fatalf("follower outcome %q with a charge that fits: %v", out, fits)
		}
		sameStream(t, string(out), &trace.SliceReader{Recs: follower, Ovf: fovf}, recs, ovf)
		checkBudget(c)
	})
}

// TestTemplateFieldsCoverRec keeps the encoder's view of a record in step
// with trace.Rec: staticPart zeroes the dynamic fields and fits compares
// the static ones, so a field added to Rec must be added to one of them.
func TestTemplateFieldsCoverRec(t *testing.T) {
	var got []string
	rt := reflect.TypeOf(trace.Rec{})
	for i := 0; i < rt.NumField(); i++ {
		got = append(got, rt.Field(i).Name)
	}
	want := []string{"PC", "Addr", "Vals", "Ext", "Op", "Flags", "NDst", "NSrc", "Bytes", "Taken", "Dst", "Src"}
	if !slices.Equal(got, want) {
		t.Fatalf("trace.Rec has fields %v; staticPart and fits know %v", got, want)
	}
	if RecSize != 48 {
		t.Errorf("trace.Rec is %d bytes, want 48", RecSize)
	}
}
