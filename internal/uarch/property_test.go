package uarch

import (
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/isa"
	"dlvp/internal/program"
)

// genProgram builds a pseudo-random but valid program: straight-line blocks
// of ALU and memory operations over a private buffer, stitched with a
// couple of loop levels and data-dependent branches, terminated by HALT.
// Every generated program is architecturally deterministic, so it checks
// the timing model's core invariant: scheme choice never changes committed
// state or instruction count.
//
// The memory operations mix widths and alignments so that stores and loads
// meet in every relation the store queue distinguishes: 1-, 2-, 4- and
// 8-byte LDR/STR at any byte offset, 16-byte LDP/STP, 16- to 32-byte LDM
// and ordered LDAR next to the 8-aligned doublewords. Partial overlaps
// (forwarding stalls) and loads that run ahead of a conflicting store
// (order flushes) are then routine.
func genProgram(seed uint64) *program.Program {
	b := program.NewBuilder("fuzz")
	const bufWords = 64
	base := b.AllocWords("buf", func() []uint64 {
		w := make([]uint64, bufWords)
		s := seed
		for i := range w {
			s = s*6364136223846793005 + 1442695040888963407
			w[i] = s >> 16
		}
		return w
	}())

	s := seed
	next := func(n uint64) uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return (s >> 33) % n
	}
	// x1 = buffer base, x2..x9 scratch, x26 outer counter.
	b.MovImm(1, base)
	b.MovImm(26, 40) // outer iterations
	b.Label("outer")
	blocks := 3 + int(next(4))
	for blk := 0; blk < blocks; blk++ {
		ops := 4 + int(next(8))
		for i := 0; i < ops; i++ {
			rd := isa.Reg(2 + next(8))
			rn := isa.Reg(2 + next(8))
			rm := isa.Reg(2 + next(8))
			off := int64(next(bufWords)) * 8
			size := uint8(next(4))
			// anyOff returns a byte offset at which an n-byte access stays
			// inside the buffer.
			anyOff := func(n int) int64 { return int64(next(uint64(bufWords*8 - n + 1))) }
			switch next(12) {
			case 0:
				b.Op3(isa.ADD, rd, rn, rm)
			case 1:
				b.Op3(isa.EOR, rd, rn, rm)
			case 2:
				b.Op3(isa.MUL, rd, rn, rm)
			case 3:
				b.Ldr(rd, 1, off, 3)
			case 4:
				b.Str(rn, 1, off, 3)
			case 5:
				b.OpImm(isa.ANDI, rd, rn, 0xffff)
			case 6:
				b.Ldr(rd, 1, anyOff(1<<size), size)
			case 7:
				b.Str(rn, 1, anyOff(1<<size), size)
			case 8:
				b.Ldp(rd, 2+(rd-1)%8, 1, anyOff(16)) // rd and the next scratch register
			case 9:
				b.Stp(rn, rm, 1, anyOff(16))
			case 10:
				n := 2 + uint8(next(3)) // rd..rd+n-1 stay inside x2..x9
				b.Ldm(isa.Reg(2+next(uint64(9-n))), n, 1, anyOff(8*int(n)))
			case 11:
				b.Ldar(rd, 1, anyOff(1<<size), size)
			}
		}
		// A data-dependent forward skip.
		lbl := "skip_" + string(rune('a'+blk))
		b.OpImm(isa.ANDI, 10, isa.Reg(2+next(8)), 3)
		b.Cbnz(10, lbl)
		b.AddI(11, 11, 1)
		b.Label(lbl)
	}
	b.SubI(26, 26, 1)
	b.Cbnz(26, "outer")
	b.Halt()
	return b.Build()
}

// TestRandomProgramsSchemeInvariance: for a set of random programs, every
// scheme commits the identical instruction stream (same count; architecture
// is untouched by speculation), and rerunning is deterministic.
func TestRandomProgramsSchemeInvariance(t *testing.T) {
	schemes := []config.Core{
		config.Baseline(), config.DLVP(), config.CAPDLVP(),
		config.VTAGE(), config.Tournament(),
	}
	for seed := uint64(1); seed <= 8; seed++ {
		p := genProgram(seed)
		var want uint64
		for si, cfg := range schemes {
			s := runProgram(t, p, cfg, 100_000)
			if si == 0 {
				want = s.Instructions
				if want == 0 {
					t.Fatalf("seed %d: nothing committed", seed)
				}
				continue
			}
			if s.Instructions != want {
				t.Fatalf("seed %d scheme %d: committed %d, baseline %d",
					seed, si, s.Instructions, want)
			}
		}
	}
}

// TestRandomProgramsSmallROB: the same invariance must hold under severe
// resource pressure (flush/recovery paths get exercised much harder).
func TestRandomProgramsSmallROB(t *testing.T) {
	small := config.DLVP()
	small.ROBSize = 20
	small.IQSize = 8
	small.LDQSize = 6
	small.STQSize = 6
	for seed := uint64(20); seed <= 24; seed++ {
		p := genProgram(seed)
		a := runProgram(t, p, config.DLVP(), 60_000)
		b := runProgram(t, p, small, 60_000)
		if a.Instructions != b.Instructions {
			t.Fatalf("seed %d: big %d vs small %d instructions",
				seed, a.Instructions, b.Instructions)
		}
		if b.Cycles < a.Cycles {
			t.Errorf("seed %d: resource-starved core faster (%d < %d cycles)",
				seed, b.Cycles, a.Cycles)
		}
	}
}

// TestCyclesMonotoneInBudget: simulating a longer prefix takes at least as
// many cycles.
func TestCyclesMonotoneInBudget(t *testing.T) {
	w := "perlbmk"
	a := runWorkload(t, w, config.DLVP(), 10_000)
	b := runWorkload(t, w, config.DLVP(), 30_000)
	if b.Cycles <= a.Cycles {
		t.Errorf("30k-instr run (%d cycles) not longer than 10k (%d)", b.Cycles, a.Cycles)
	}
}
