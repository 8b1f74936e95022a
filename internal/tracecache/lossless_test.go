package tracecache_test

import (
	"fmt"
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/emu"
	"dlvp/internal/isa"
	"dlvp/internal/program"
	"dlvp/internal/trace"
	"dlvp/internal/tracecache"
	"dlvp/internal/uarch"
)

// mixProgram builds a looping program that exercises every record shape:
// a 16-destination LDM, an LDM whose register range covers XZR, LDRPOST,
// STRPOST, STP, VLD and the other loads and stores, ALU work, BL/RET, an
// indirect BR, and conditional branches that go both ways. seed orders the
// blocks and picks their offsets; the stores feed the loads, so values
// change from one iteration to the next.
func mixProgram(seed uint64) *program.Program {
	const words = 96
	s := seed
	next := func(n uint64) uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return (s >> 33) % n
	}
	b := program.NewBuilder(fmt.Sprintf("mix%d", seed))
	init := make([]uint64, words)
	for i := range init {
		init[i] = next(1 << 40)
	}
	base := b.AllocWords("buf", init)
	off := func(span uint64) int64 { return int64(next(words-span)) * 8 }

	// x1 base, x2..x17 LDM16 destinations, x18/x21 scratch, x19/x20
	// post-index pointers, x24 BR target, x25 link, x26 loop counter;
	// x29, x30, xzr and v0 take the XZR-covering LDM, v1/v2 the VLD.
	blocks := []func(){
		func() { b.Ldm(2, 16, 1, off(16)) },
		func() { b.Ldm(29, 4, 1, off(4)) },
		func() {
			b.MovImm(19, base+uint64(off(3)))
			b.LdrPost(18, 19, 8)
			b.LdrPost(21, 19, 8)
		},
		func() {
			b.MovImm(20, base+uint64(off(2)))
			b.Emit(isa.Inst{Op: isa.STRPOST, Rt: isa.Reg(2 + next(16)), Rn: 20, Imm: 8, Size: 3})
		},
		func() { b.Stp(isa.Reg(2+next(16)), isa.Reg(2+next(16)), 1, off(2)) },
		func() { b.Vld(33, 34, 1, off(2)) },
		func() { b.Ldp(isa.Reg(2+next(16)), 21, 1, off(2)) },
		func() { b.Ldr(isa.Reg(2+next(16)), 1, off(1), uint8(next(4))) },
		func() {
			b.Emit(isa.Inst{Op: isa.LDRS, Rd: 18, Rn: 1, Rm: isa.XZR, Imm: off(1), Size: uint8(next(3))})
		},
		func() { b.Ldar(21, 1, off(1), 3) },
		func() { b.Str(isa.Reg(2+next(16)), 1, off(1), uint8(next(4))) },
		func() { b.Emit(isa.Inst{Op: isa.STLR, Rt: 18, Rn: 1, Rm: isa.XZR, Imm: off(1), Size: 3}) },
		func() {
			b.Op3(isa.ADD, 21, isa.Reg(2+next(16)), isa.Reg(2+next(16)))
			b.Op3(isa.MUL, 18, 21, isa.Reg(2+next(16)))
			b.Op3(isa.UDIV, 21, 18, isa.Reg(2+next(16)))
			b.Madd(18, 21, 18, isa.Reg(2+next(16)))
		},
		func() { b.Call("sub", 25) },
		func() {
			p := b.PC() // MovImm emits one instruction here; BR skips the NOP
			b.MovImm(24, p+12)
			b.BrReg(24)
			b.Nop()
		},
		func() {
			lbl := fmt.Sprintf("skip%x", b.PC())
			b.OpImm(isa.ANDI, 18, isa.Reg(2+next(16)), 1)
			b.Cbnz(18, lbl)
			b.AddI(21, 21, 1)
			b.Label(lbl)
		},
		func() {
			lbl := fmt.Sprintf("lt%x", b.PC())
			b.CondBr(isa.BLT, isa.Reg(2+next(16)), isa.Reg(2+next(16)), lbl)
			b.Op3(isa.EOR, 21, 21, 18)
			b.Label(lbl)
		},
	}
	order := make([]int, len(blocks))
	for i := range order {
		j := int(next(uint64(i + 1)))
		order[i], order[j] = order[j], i
	}

	b.MovImm(1, base)
	b.MovImm(26, 300)
	b.Label("loop")
	for _, i := range order {
		blocks[i]()
	}
	b.SubI(26, 26, 1)
	b.Cbnz(26, "loop")
	b.Halt()
	b.Label("sub")
	b.AddI(18, 18, 3)
	b.Ret(25)
	return b.Build()
}

// recView is every record accessor the core reads, resolved through the
// reader's overflow table.
type recView struct {
	PC, Next, Addr, Target, Value             uint64
	Op                                        isa.Op
	Flags                                     isa.Flags
	Load, Store, Branch, Cond, Ordered, Taken bool
	NDst, NSrc, Bytes                         uint8
	Dst                                       [trace.MaxDests]isa.Reg
	Vals                                      [trace.MaxDests]uint64
	Src                                       [trace.MaxSrcs]isa.Reg
}

func viewOf(r *trace.Rec, ovf *trace.Overflow) recView {
	v := recView{
		PC: r.PC, Next: r.Next, Addr: r.Addr, Target: r.Target(), Value: r.Value(),
		Op: r.Op, Flags: r.Flags,
		Load: r.IsLoad(), Store: r.IsStore(), Branch: r.IsBranch(), Cond: r.IsCondBranch(),
		Ordered: r.IsOrdered(), Taken: r.Taken,
		NDst: r.NDst, NSrc: r.NSrc, Bytes: r.Bytes, Src: r.Src,
	}
	for j := 0; j < int(r.NDst); j++ {
		v.Dst[j] = r.DestReg(j, ovf)
		v.Vals[j] = r.DestValue(j, ovf)
	}
	return v
}

// streamViews drains r, resolving each record as it arrives.
func streamViews(r trace.Reader) []recView {
	ovf := trace.OverflowOf(r)
	var out []recView
	var rec trace.Rec
	for r.Next(&rec) {
		out = append(out, viewOf(&rec, ovf))
	}
	return out
}

// positionalViews reads a *trace.SliceReader by position, as the core's
// zero-copy path does.
func positionalViews(t *testing.T, r trace.Reader) []recView {
	t.Helper()
	sr, ok := r.(*trace.SliceReader)
	if !ok {
		t.Fatalf("%T is not a *trace.SliceReader", r)
	}
	ovf := trace.OverflowOf(r)
	out := make([]recView, len(sr.Recs))
	for i := range out {
		out[i] = viewOf(&sr.Recs[i], ovf)
	}
	return out
}

// losslessPaths returns every hand-off a stream can take from the emulator
// to the core, each as a constructor for a fresh reader plus the function
// to call once the reader is drained.
func losslessPaths(t *testing.T, prog *program.Program) map[string]func() (trace.Reader, func()) {
	const instrs = 50_000 // above the program's length: it halts first
	src := func() trace.Reader {
		cpu := emu.New(prog)
		cpu.MaxInstrs = instrs
		return cpu
	}
	nop := func() {}
	newCache := func() *tracecache.Cache { return tracecache.New(64 << 20) }
	cacheReader := func(tc *tracecache.Cache, want tracecache.Outcome) (trace.Reader, func()) {
		r, release, got := tc.Reader(prog.Name, instrs, src)
		if got != want {
			t.Fatalf("outcome %q, want %q", got, want)
		}
		return r, release
	}
	return map[string]func() (trace.Reader, func()){
		"collect": func() (trace.Reader, func()) {
			cpu := src()
			return &trace.SliceReader{Recs: trace.Collect(cpu, 0), Ovf: trace.OverflowOf(cpu)}, nop
		},
		"capture": func() (trace.Reader, func()) {
			return cacheReader(newCache(), tracecache.OutcomeCapture)
		},
		"follow": func() (trace.Reader, func()) {
			var r trace.Reader
			var release func()
			_, out, _ := tracecache.OpenDuringCapture(newCache, prog.Name, instrs, src,
				func(tc *tracecache.Cache) tracecache.Outcome {
					var out tracecache.Outcome
					r, release, out = tc.Reader(prog.Name, instrs, src)
					return out
				})
			if out != tracecache.OutcomeFollow {
				t.Fatalf("outcome %q, want %q", out, tracecache.OutcomeFollow)
			}
			return r, release
		},
		"replay": func() (trace.Reader, func()) {
			tc := newCache()
			lead, release := cacheReader(tc, tracecache.OutcomeCapture)
			drain(lead)
			release()
			return cacheReader(tc, tracecache.OutcomeReplay)
		},
	}
}

// TestLosslessRecords: for generated programs mixing every record shape,
// every accessor the core reads (destination registers and values, source
// registers, target, taken and the class flags) agrees between live
// emulation and every other hand-off — trace.Collect + SliceReader and
// the trace cache's capture, follow and replay — read as a stream and, for
// each of them, by position, as the core reads a *trace.SliceReader; the
// core's RunStats agree too. CI runs this under -race, since a follower
// replays the records and overflow table another goroutine captured.
func TestLosslessRecords(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		prog := mixProgram(seed)
		t.Run(prog.Name, func(t *testing.T) {
			live := streamViews(emu.New(prog))
			checkCoverage(t, live)

			paths := losslessPaths(t, prog)
			for name, open := range paths {
				r, done := open()
				got := streamViews(r)
				done()
				sameViews(t, name, got, live)

				r, done = open()
				got = positionalViews(t, r)
				done()
				sameViews(t, name+" (by position)", got, live)
			}

			for _, cfg := range []config.Core{config.DLVP(), config.VTAGE()} {
				want := statsJSON(t, uarch.New(cfg, prog, emu.New(prog)).Run(0))
				for name, open := range paths {
					r, done := open()
					got := statsJSON(t, uarch.New(cfg, prog, r).Run(0))
					done()
					if got != want {
						t.Errorf("%s/%s: RunStats diverge from live emulation:\n live: %s\n %s: %s",
							cfg.VP.Scheme, name, want, name, got)
					}
				}
			}
		})
	}
}

func sameViews(t *testing.T, path string, got, want []recView) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, live emulation produced %d", path, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d differs:\n got %+v\nlive %+v", path, i, got[i], want[i])
		}
	}
}

// checkCoverage fails unless the stream holds every record shape the test
// is about.
func checkCoverage(t *testing.T, recs []recView) {
	t.Helper()
	seen := map[string]bool{}
	for _, r := range recs {
		switch {
		case r.Op == isa.LDM && r.NDst == 16:
			seen["ldm16"] = true
		case r.Op == isa.LDM && int(r.NDst) < int(r.Bytes)/8:
			seen["ldm-xzr"] = true
		case r.Cond && r.Taken:
			seen["cond-taken"] = true
		case r.Cond:
			seen["cond-not-taken"] = true
		}
		seen[r.Op.String()] = true
	}
	for _, want := range []string{"ldm16", "ldm-xzr", "cond-taken", "cond-not-taken",
		"ldrpost", "strpost", "stp", "vld", "ret", "br", "bl"} {
		if !seen[want] {
			t.Errorf("generated stream holds no %s record", want)
		}
	}
}
