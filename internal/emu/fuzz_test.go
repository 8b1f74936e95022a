package emu

import (
	"bytes"
	"testing"

	"dlvp/internal/isa"
	"dlvp/internal/program"
)

// fuzzBudget bounds every fuzzed program's dynamic instructions.
const fuzzBudget = 300

// fuzzRegs are the registers fuzzed operands pick from: a few general
// registers, the prelude's pointers, the link register, XZR and vector
// registers at both ends of the file, so operands collide often.
var fuzzRegs = [16]isa.Reg{0, 1, 2, 3, 4, 5, 6, 7, 28, 29, 30, isa.XZR, 32, 33, 62, 63}

// fuzzImms are the immediates fuzzed instructions pick from: displacements
// that keep an access on its page, push an 8-byte access across the
// boundary from a page base or sit past a shift's range.
var fuzzImms = [8]int64{0, 1, 8, -8, 4092, 4093, 63, 1 << 33}

// fuzzProgram decodes data into a short program. A fixed prelude points
// x1 at an initialised data page, x2 four bytes below the end of that
// page, and x3 at a page nothing initialises; every further 8 bytes of
// data are one instruction, any opcode with any operands:
//
//	[0] opcode      [1] Rd | Rd2<<4  [2] Rn | Rm<<4  [3] Rt | Rt2<<4
//	[4] immediate, size and scale    [5] LDM count   [6] branch target
//	[7] added to the immediate
//
// Register fields index fuzzRegs. A branch targets an instruction of the
// program, its own fall-through, the end of the code, a PC off the 4-byte
// grid or one below the code segment.
func fuzzProgram(data []byte) *program.Program {
	b := program.NewBuilder("fuzz")
	page := make([]byte, pageSize)
	for i := range page {
		page[i] = byte(i*7 + 3)
	}
	base := b.AllocInit("page", page)
	b.MovImm(1, base)
	b.MovImm(2, base+pageSize-4)
	b.MovImm(3, base+16*pageSize)
	b.MovImm(4, ^uint64(0)>>1)
	b.MovImm(32, 0x8000_0000_0000_0001)

	const width = 8
	n := min(len(data)/width, 48)
	first := int((b.PC() - program.CodeBase) / 4)
	end := first + n // index one past the last instruction
	for i := 0; i < n; i++ {
		c := data[i*width : (i+1)*width]
		pc := b.PC()
		inst := isa.Inst{
			Op: isa.Op(int(c[0]) % isa.NumOps),
			Rd: fuzzRegs[c[1]&15], Rd2: fuzzRegs[c[1]>>4],
			Rn: fuzzRegs[c[2]&15], Rm: fuzzRegs[c[2]>>4],
			Rt: fuzzRegs[c[3]&15], Rt2: fuzzRegs[c[3]>>4],
			Imm:   fuzzImms[c[4]&7] + int64(int8(c[7])),
			Size:  c[4] >> 3 & 3,
			Scale: c[4] >> 5 & 3,
			NReg:  2 + c[5]%(isa.MaxLDMRegs-1),
		}
		if int(inst.Rd)+int(inst.NReg) > isa.NumRegs && inst.Op == isa.LDM {
			inst.Rd = isa.Reg(isa.NumRegs - int(inst.NReg))
		}
		switch c[6] % 8 {
		case 0, 1, 2:
			inst.Target = program.CodeBase + 4*uint64(int(c[6]>>3)%(n+first))
		case 3:
			inst.Target = pc + 4
		case 4:
			inst.Target = program.CodeBase + 4*uint64(end)
		case 5:
			inst.Target = pc + 2
		case 6:
			inst.Target = program.CodeBase - 4
		default:
			inst.Target = pc
		}
		b.Emit(inst)
	}
	return b.Build()
}

// FuzzEmulator holds the decoded interpreter to the reference on short
// programs of any opcodes and operands: Next must deliver the reference's
// records and overflow entries and end in its state, and Run, in one call
// or resumed, must reach the same state.
func FuzzEmulator(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		cpu, ref := New(p), NewRef(p)
		cpu.MaxInstrs, ref.MaxInstrs = fuzzBudget, fuzzBudget
		if err := MatchReference(cpu, ref); err != nil {
			t.Fatalf("%v\n%s", err, p.Disasm())
		}
		want := ref.Snapshot()
		for _, first := range []uint64{0, fuzzBudget / 3} {
			fast := New(p)
			fast.MaxInstrs = fuzzBudget
			if first > 0 {
				fast.Run(first)
			}
			fast.Run(0)
			if err := SameState(fast.Snapshot(), want); err != nil {
				t.Fatalf("Run after %d: %v\n%s", first, err, p.Disasm())
			}
			if n := fast.Overflow().Bytes(); n != 0 {
				t.Fatalf("Run left %d bytes in the overflow table", n)
			}
		}
	})
}

// fuzzSeeds are hand-made inputs for the corners the target must reach,
// one instruction of 8 bytes each (see fuzzProgram).
func fuzzSeeds() [][]byte {
	reg := func(r isa.Reg) byte {
		for i, fr := range fuzzRegs {
			if fr == r {
				return byte(i)
			}
		}
		panic("register not in fuzzRegs")
	}
	ops := func(r1, r2 isa.Reg) byte { return reg(r1) | reg(r2)<<4 }
	in := func(op isa.Op, rd, rd2, rn, rm, rt, rt2 isa.Reg, imm, size, scale, nreg, target, add byte) []byte {
		return []byte{byte(op), ops(rd, rd2), ops(rn, rm), ops(rt, rt2), imm | size<<3 | scale<<5, nreg, target, add}
	}
	x := isa.XZR
	// Every opcode once, the ones that leave the code last.
	var every []byte
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if op != isa.HALT && op != isa.RET && op != isa.BR {
			every = append(every, in(op, 5, 6, 1, 0, 4, 32, 2, byte(op)&3, 1, 3, 3, 0)...)
		}
	}
	every = append(append(every, in(isa.BR, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0)...), in(isa.RET, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0)...)
	return [][]byte{
		every,
		// XZR as destination, source and base; LDM over XZR, wide and short.
		bytes.Join([][]byte{
			in(isa.MOVZ, x, 0, 0, 0, 0, 0, 6, 0, 0, 0, 3, 9),
			in(isa.ADD, 5, 0, x, 4, 0, 0, 0, 0, 0, 0, 3, 0),
			in(isa.LDR, 6, 0, x, x, 0, 0, 1, 3, 0, 0, 3, 0),
			in(isa.LDM, 28, 0, 1, x, 0, 0, 2, 3, 0, 14, 3, 0),
			in(isa.LDM, 30, 0, 2, x, 0, 0, 0, 3, 0, 0, 3, 0),
		}, nil),
		// LDRPOST and STRPOST with Rd == Rn and with Rn == XZR.
		bytes.Join([][]byte{
			in(isa.LDRPOST, 1, 0, 1, x, 0, 0, 2, 3, 0, 0, 3, 0),
			in(isa.LDRPOST, 5, 0, x, x, 0, 0, 2, 3, 0, 0, 3, 0),
			in(isa.STRPOST, 0, 0, 2, x, 2, 0, 2, 3, 0, 0, 3, 0),
			in(isa.STRPOST, 0, 0, x, x, 4, 0, 2, 3, 0, 0, 3, 0),
		}, nil),
		// LDRS at every size across a page boundary, a pair from a page
		// never written, and a store that straddles the boundary.
		bytes.Join([][]byte{
			in(isa.LDRS, 5, 0, 2, x, 0, 0, 0, 0, 0, 0, 3, 3),
			in(isa.LDRS, 6, 0, 2, x, 0, 0, 0, 1, 0, 0, 3, 3),
			in(isa.LDRS, 7, 0, 2, x, 0, 0, 0, 2, 0, 0, 3, 0),
			in(isa.LDRS, 0, 0, 2, x, 0, 0, 0, 3, 0, 0, 3, 0),
			in(isa.LDP, 5, 6, 3, x, 0, 0, 5, 3, 0, 0, 3, 0),
			in(isa.STR, 0, 0, 2, x, 4, 0, 0, 3, 0, 0, 3, 0),
		}, nil),
		// A taken branch to its own fall-through, a call, a loop, a branch
		// off the 4-byte grid and a return.
		bytes.Join([][]byte{
			in(isa.BEQ, 0, 0, 5, 5, 0, 0, 0, 0, 0, 0, 3, 0),
			in(isa.BL, 30, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0),
			in(isa.SUBI, 4, 0, 4, 0, 0, 0, 1, 0, 0, 0, 3, 0),
			in(isa.CBNZ, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 2+8*7, 0),
			in(isa.BNE, 0, 0, 4, x, 0, 0, 0, 0, 0, 0, 5, 0),
			in(isa.RET, 0, 0, 30, 0, 0, 0, 0, 0, 0, 0, 4, 0),
		}, nil),
		// HALT after a store.
		bytes.Join([][]byte{
			in(isa.STP, 0, 0, 1, x, 4, 32, 2, 0, 0, 0, 3, 0),
			in(isa.HALT, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0),
		}, nil),
	}
}
