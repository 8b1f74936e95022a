//go:build uarchassert

package uarch

import (
	"strings"
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/isa"
	"dlvp/internal/program"
	"dlvp/internal/trace"
)

// TestAssertBuildStillCorrect runs real workloads and the widened random
// programs under the assert build, where every LSQ answer is checked in
// lockstep against the linear window scans. Selective replay un-issues
// stores and 6-entry queues force LDQ/STQ stalls and flush storms, so the
// four configurations cover every path that changes the store queue's
// issue state. Run with:
//
//	go test -tags uarchassert ./internal/uarch/
func TestAssertBuildStillCorrect(t *testing.T) {
	runWorkload(t, "perlbmk", config.Baseline(), 20_000)
	runWorkload(t, "perlbmk", config.DLVP(), 20_000)

	replay := config.DLVP()
	replay.VP.SelectiveReplay = true
	tiny := config.DLVP()
	tiny.LDQSize, tiny.STQSize = 6, 6
	cfgs := []config.Core{config.Baseline(), config.DLVP(), replay, tiny}
	for seed := uint64(1); seed <= 16; seed++ {
		p := genProgram(seed)
		for _, cfg := range cfgs {
			runProgram(t, p, cfg, 100_000)
		}
	}
}

// TestLockstepMismatchPanics corrupts the address the LSQ captured for a
// load and checks that the lockstep comparison with the trace record
// refuses the resulting answer.
func TestLockstepMismatchPanics(t *testing.T) {
	recs := []trace.Rec{
		{PC: 0x1000, Op: isa.STR, Flags: isa.STR.Flags(), Addr: 0x8000, Bytes: 8},
		{PC: 0x1004, Op: isa.LDR, Flags: isa.LDR.Flags(), Addr: 0x8004, Bytes: 1},
	}
	c := New(config.Baseline(), program.NewBuilder("ls").Build(), &trace.SliceReader{Recs: recs})
	c.fetchSeq = 2
	c.a.w.flags[0] = fValid | fIsStore | fIssued
	c.a.w.flags[1] = fValid | fIsLoad
	c.a.lsq.push(0, true, 0x8000, 8)
	c.a.lsq.push(1, false, 0x9000, 1) // diverged from the record
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lockstep check accepted an answer the linear reference disagrees with")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "lsq forward(1)") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	st, fwd := c.a.lsq.forward(1)
	c.lockstepForward(1, st, fwd)
}
