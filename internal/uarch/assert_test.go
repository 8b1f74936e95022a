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
// programs under the assert build, where every LSQ answer and every issue
// stage's selection are checked in lockstep against the linear window
// scans. Selective replay un-issues stores and 6-entry queues force
// LDQ/STQ stalls and flush storms, so those configurations cover every
// path that changes the store queue's issue state; the narrow core (one
// load-store lane, issue width 3) makes the width and lane limits cut
// most scans short. Run with:
//
//	go test -tags uarchassert ./internal/uarch/
func TestAssertBuildStillCorrect(t *testing.T) {
	runWorkload(t, "perlbmk", config.Baseline(), 20_000)
	runWorkload(t, "perlbmk", config.DLVP(), 20_000)

	replay := config.DLVP()
	replay.VP.SelectiveReplay = true
	tiny := config.DLVP()
	tiny.LDQSize, tiny.STQSize = 6, 6
	narrow := config.DLVP()
	narrow.ROBSize, narrow.LSLanes, narrow.IssueWidth = 24, 1, 3
	cfgs := []config.Core{config.Baseline(), config.DLVP(), replay, tiny, narrow}
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

// TestLostWakeupPanics plants a lost wakeup: a renamed candidate that is
// ready to issue, but whose active bit is cleared and which has no wheel
// entry or waiter-list entry, so the bitmap scan never examines it. The
// issue-selection reference must refuse the stage, naming the seq and the
// cycle; with the active bit set, the same candidate issues and the
// reference accepts.
func TestLostWakeupPanics(t *testing.T) {
	plant := func(active bool) *Core {
		recs := []trace.Rec{{PC: 0x1000, Op: isa.ADD, Flags: isa.ADD.Flags()}}
		c := New(config.Baseline(), program.NewBuilder("lost").Build(), &trace.SliceReader{Recs: recs})
		c.fetchSeq, c.renameSeq, c.now = 1, 1, 5
		c.a.w.flags[0] = fValid | fRenamed
		c.a.iqBits[0] = 1
		c.iqCount = 1
		if active {
			c.a.activeBits[0] = 1
		}
		return c
	}
	c := plant(true)
	c.issueStage()
	if c.a.w.flags[0]&fIssued == 0 {
		t.Fatal("an active ready candidate did not issue")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("the issue-selection reference accepted a ready candidate the scan skipped")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "seq 0 unissued in cycle 5") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	plant(false).issueStage()
}
