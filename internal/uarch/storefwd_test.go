package uarch

import (
	"reflect"
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/emu"
	"dlvp/internal/isa"
	"dlvp/internal/metrics"
	"dlvp/internal/program"
	"dlvp/internal/siteprof"
	"dlvp/internal/trace"
)

// buildPartialOverlapLoop builds the narrow-store → wide-load shape: a
// 1-byte store into the middle of a word that an 8-byte load then reads.
// The store cannot supply the load's full value, so the load must wait for
// the store to drain to committed memory instead of forwarding.
func buildPartialOverlapLoop() *program.Program {
	b := program.NewBuilder("partial")
	base := b.AllocWords("cell", []uint64{0x1122334455667788, 0, 0, 0, 0, 0, 0, 0})
	b.MovImm(1, base)
	b.MovImm(2, 0xAB)
	b.Label("loop")
	b.Str(2, 1, 3, 0) // 1-byte store at base+3: inside the load's span
	b.Ldr(3, 1, 0, 3) // 8-byte load at base: only partially covered
	b.Add(4, 3, 3)
	b.Br("loop")
	return b.Build()
}

// buildContainedForwardLoop is the control: an 8-byte store fully contains
// a 1-byte load, which is the legal store-to-load forwarding case.
func buildContainedForwardLoop() *program.Program {
	b := program.NewBuilder("contained")
	base := b.Alloc("cell", 64)
	b.MovImm(1, base)
	b.MovImm(2, 0xCD)
	b.Label("loop")
	b.Str(2, 1, 0, 3) // 8-byte store at base
	b.Ldr(3, 1, 3, 0) // 1-byte load at base+3: fully contained
	b.Add(4, 3, 3)
	b.Br("loop")
	return b.Build()
}

// TestPartialOverlapStallsLoad is the regression test for the forwarding
// width bug: a store that only partially covers a younger load must not
// forward; the load stalls until the store commits. The control loop with
// full containment must keep forwarding and never hit the stall path.
func TestPartialOverlapStallsLoad(t *testing.T) {
	partial := runProgram(t, buildPartialOverlapLoop(), config.Baseline(), 20_000)
	if partial.StoreFwdPartialStalls == 0 {
		t.Error("narrow store + wide load: no partial-overlap stalls recorded")
	}
	// The store issues before the load in the same age-ordered scan, so the
	// load always sees it in the STQ: no ordering violation is possible.
	if partial.OrderFlushes != 0 {
		t.Errorf("partial-overlap loop: %d order flushes, want 0", partial.OrderFlushes)
	}

	contained := runProgram(t, buildContainedForwardLoop(), config.Baseline(), 20_000)
	if contained.StoreFwdPartialStalls != 0 {
		t.Errorf("fully contained load stalled %d times; containment must forward",
			contained.StoreFwdPartialStalls)
	}
	if contained.OrderFlushes != 0 {
		t.Errorf("contained loop: %d order flushes, want 0", contained.OrderFlushes)
	}

	// The stalled loop waits a store-buffer drain per iteration; the
	// forwarding loop does not. Identical instruction mix otherwise, so
	// the partial variant must burn strictly more cycles per instruction.
	if partial.IPC() >= contained.IPC() {
		t.Errorf("partial-overlap IPC %.3f >= contained IPC %.3f; stall has no timing effect",
			partial.IPC(), contained.IPC())
	}
}

// TestPartialOverlapSiteAttribution runs the narrow-store → wide-load shape
// with a value that changes every iteration under DLVP with site profiling:
// the load's address is stable (PAP turns confident) but the partially
// overlapping store rewrites part of the word between probe and load, so
// the mispredicts must be attributed to the store-conflict cause — and the
// stall path must be exercised alongside them.
func TestPartialOverlapSiteAttribution(t *testing.T) {
	b := program.NewBuilder("partialconflict")
	base := b.AllocWords("cell", []uint64{0x1122334455667788, 0, 0, 0, 0, 0, 0, 0})
	b.MovImm(1, base)
	b.MovImm(2, 0)
	b.Label("loop")
	b.AddI(2, 2, 1)   // the stored byte changes every iteration
	b.Str(2, 1, 3, 0) // 1-byte store into the middle of the word
	b.Ldr(3, 1, 0, 3) // 8-byte load: stable address, changing value
	b.Add(4, 3, 3)
	b.Br("loop")
	p := b.Build()

	cpu := emu.New(p)
	cpu.MaxInstrs = 30_000
	c := New(config.DLVP(), p, cpu)
	c.EnableSiteProfile(0)
	s := c.Run(0)
	if s.StoreFwdPartialStalls == 0 {
		t.Error("no partial-overlap stalls on the conflicting loop")
	}
	prof := c.SiteProfile()
	if prof == nil {
		t.Fatal("SiteProfile() = nil")
	}
	tot := prof.Totals()
	if tot.Causes[siteprof.CauseStoreConflict] == 0 {
		t.Errorf("no store-conflict attributions; causes = %+v", tot.Causes)
	}
}

// TestPartialOverlapDeterministic pins the stall path as deterministic:
// two identical runs must agree on every statistic.
func TestPartialOverlapDeterministic(t *testing.T) {
	run := func() metrics.RunStats {
		p := buildPartialOverlapLoop()
		cpu := emu.New(p)
		cpu.MaxInstrs = 20_000
		return New(config.Baseline(), p, cpu).Run(0)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("partial-overlap runs diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestOrderViolationSameCycleExcluded pins the same-cycle semantics of the
// LSQ's violation query directly: a load whose issueCycle equals the cycle
// the older store resolves was processed after the store in the
// age-ordered scan — it already saw the store in the STQ and must not be
// squashed. A load that issued in an earlier cycle read stale data and
// must be.
func TestOrderViolationSameCycleExcluded(t *testing.T) {
	recs := []trace.Rec{
		{PC: 0x1000, Op: isa.STR, Flags: isa.STR.Flags(), Addr: 0x8000, Bytes: 8},
		{PC: 0x1004, Op: isa.LDR, Flags: isa.LDR.Flags(), Addr: 0x8004, Bytes: 1},
	}
	newCore := func() *Core {
		c := New(config.Baseline(), program.NewBuilder("ov").Build(), &trace.SliceReader{Recs: recs})
		c.now = 10
		c.fetchSeq = 2
		w := &c.a.w
		w.flags[0] = fValid | fIsStore | fIssued
		w.flags[1] = fValid | fIsLoad | fIssued
		for seq, r := range recs {
			c.a.lsq.push(uint64(seq), r.IsStore(), r.Addr, r.Bytes)
		}
		return c
	}

	c := newCore()
	c.a.w.issueCycle[1] = c.now // load issued this very cycle
	c.checkOrderViolation(0)
	if c.flushPending {
		t.Error("same-cycle load squashed: it issued after the store in the age-ordered scan")
	}

	c = newCore()
	c.a.w.issueCycle[1] = c.now - 1 // load issued before the store resolved
	c.checkOrderViolation(0)
	if !c.flushPending {
		t.Error("stale load not squashed: it executed before the store's address resolved")
	}
}
