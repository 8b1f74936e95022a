package emu

import (
	"fmt"
	"maps"
	"testing"

	"dlvp/internal/isa"
	"dlvp/internal/program"
	"dlvp/internal/trace"
)

// RefCPU is the reference interpreter the decoded one is held to: it
// fetches each instruction through program.InstAt, switches over the wide
// isa.Inst, tests every register access for XZR and computes each
// record's destinations and sources afresh.
type RefCPU struct {
	prog *program.Program
	mem  *Memory
	regs [isa.NumRegs]uint64
	pc   uint64
	seq  uint64
	halt bool
	ovf  trace.Overflow

	// MaxInstrs, when non-zero, bounds the number of records produced.
	MaxInstrs uint64
}

// NewRef returns a reference CPU at p's entry point, set up as New sets
// up a CPU.
func NewRef(p *program.Program) *RefCPU {
	c := &RefCPU{prog: p, mem: NewMemoryFromProgram(p), pc: p.Entry}
	c.regs[SPReg] = program.StackTop
	return c
}

// Reg returns the current value of r.
func (c *RefCPU) Reg(r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return c.regs[r]
}

// SetReg sets r (writes to XZR are discarded).
func (c *RefCPU) SetReg(r isa.Reg, v uint64) {
	if r != isa.XZR {
		c.regs[r] = v
	}
}

// Overflow returns the table the wide records Next delivers index.
func (c *RefCPU) Overflow() *trace.Overflow { return &c.ovf }

// Snapshot captures the reference's architectural state.
func (c *RefCPU) Snapshot() *Snapshot {
	return &Snapshot{Regs: c.regs, PC: c.pc, Seq: c.seq, Halted: c.halt, Mem: c.mem.Clone()}
}

// Next executes one instruction and fills rec with its dynamic record.
func (c *RefCPU) Next(rec *trace.Rec) bool {
	inst := c.fetch(c.MaxInstrs)
	if inst == nil {
		return false
	}
	c.step(inst, rec)
	return true
}

// fetch returns the instruction at the PC, or nil once the program has
// halted, limit instructions have executed (0: no limit) or the PC has
// left the code segment, which halts the program.
func (c *RefCPU) fetch(limit uint64) *isa.Inst {
	if c.halt || (limit > 0 && c.seq >= limit) {
		return nil
	}
	inst := c.prog.InstAt(c.pc)
	if inst == nil {
		c.halt = true
	}
	return inst
}

// step executes inst and fills rec with its dynamic record.
func (c *RefCPU) step(inst *isa.Inst, rec *trace.Rec) {
	pc := c.pc
	c.seq++

	var (
		taken  bool
		addr   uint64
		bytes  uint8
		v0, v1 uint64
	)
	r := func(reg isa.Reg) uint64 { return c.Reg(reg) }

	switch inst.Op {
	case isa.NOP:
	case isa.HALT:
		c.halt = true

	case isa.ADD:
		c.SetReg(inst.Rd, r(inst.Rn)+r(inst.Rm))
	case isa.SUB:
		c.SetReg(inst.Rd, r(inst.Rn)-r(inst.Rm))
	case isa.AND:
		c.SetReg(inst.Rd, r(inst.Rn)&r(inst.Rm))
	case isa.ORR:
		c.SetReg(inst.Rd, r(inst.Rn)|r(inst.Rm))
	case isa.EOR:
		c.SetReg(inst.Rd, r(inst.Rn)^r(inst.Rm))
	case isa.LSL:
		c.SetReg(inst.Rd, r(inst.Rn)<<(r(inst.Rm)&63))
	case isa.LSR:
		c.SetReg(inst.Rd, r(inst.Rn)>>(r(inst.Rm)&63))
	case isa.ASR:
		c.SetReg(inst.Rd, uint64(int64(r(inst.Rn))>>(r(inst.Rm)&63)))
	case isa.ADDI:
		c.SetReg(inst.Rd, r(inst.Rn)+uint64(inst.Imm))
	case isa.SUBI:
		c.SetReg(inst.Rd, r(inst.Rn)-uint64(inst.Imm))
	case isa.ANDI:
		c.SetReg(inst.Rd, r(inst.Rn)&uint64(inst.Imm))
	case isa.ORRI:
		c.SetReg(inst.Rd, r(inst.Rn)|uint64(inst.Imm))
	case isa.EORI:
		c.SetReg(inst.Rd, r(inst.Rn)^uint64(inst.Imm))
	case isa.LSLI:
		c.SetReg(inst.Rd, r(inst.Rn)<<(uint64(inst.Imm)&63))
	case isa.LSRI:
		c.SetReg(inst.Rd, r(inst.Rn)>>(uint64(inst.Imm)&63))
	case isa.MOVZ:
		c.SetReg(inst.Rd, uint64(inst.Imm))
	case isa.CSEL:
		if r(inst.Rm) != 0 {
			c.SetReg(inst.Rd, r(inst.Rn))
		} else {
			c.SetReg(inst.Rd, uint64(inst.Imm))
		}
	case isa.MUL:
		c.SetReg(inst.Rd, r(inst.Rn)*r(inst.Rm))
	case isa.MADD:
		c.SetReg(inst.Rd, r(inst.Rn)*r(inst.Rm)+r(inst.Rt))
	case isa.UDIV:
		if d := r(inst.Rm); d != 0 {
			c.SetReg(inst.Rd, r(inst.Rn)/d)
		} else {
			c.SetReg(inst.Rd, 0)
		}
	case isa.UREM:
		if d := r(inst.Rm); d != 0 {
			c.SetReg(inst.Rd, r(inst.Rn)%d)
		} else {
			c.SetReg(inst.Rd, 0)
		}

	case isa.B:
		taken, addr = true, inst.Target
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		a, bv := r(inst.Rn), r(inst.Rm)
		switch inst.Op {
		case isa.BEQ:
			taken = a == bv
		case isa.BNE:
			taken = a != bv
		case isa.BLT:
			taken = int64(a) < int64(bv)
		case isa.BGE:
			taken = int64(a) >= int64(bv)
		case isa.BLTU:
			taken = a < bv
		case isa.BGEU:
			taken = a >= bv
		}
		addr = inst.Target
	case isa.CBZ:
		taken, addr = r(inst.Rn) == 0, inst.Target
	case isa.CBNZ:
		taken, addr = r(inst.Rn) != 0, inst.Target
	case isa.BL:
		c.SetReg(inst.Rd, pc+4)
		taken, addr = true, inst.Target
	case isa.RET, isa.BR:
		taken, addr = true, r(inst.Rn)

	case isa.LDR, isa.LDRS, isa.LDAR:
		ea := c.effAddr(inst)
		size := 1 << inst.Size
		v := c.mem.Read(ea, size)
		if inst.Op == isa.LDRS && size < 8 {
			shift := uint(64 - 8*size)
			v = uint64(int64(v<<shift) >> shift)
		}
		c.SetReg(inst.Rd, v)
		addr, bytes, v0 = ea, uint8(size), v
	case isa.LDRPOST:
		ea := r(inst.Rn)
		v0, v1 = c.mem.Read(ea, 8), ea+uint64(inst.Imm)
		c.SetReg(inst.Rd, v0)
		c.SetReg(inst.Rn, v1)
		addr, bytes = ea, 8
	case isa.LDP, isa.VLD:
		ea := c.effAddr(inst)
		v0, v1 = c.mem.Read(ea, 8), c.mem.Read(ea+8, 8)
		c.SetReg(inst.Rd, v0)
		c.SetReg(inst.Rd2, v1)
		addr, bytes = ea, 16
	case isa.LDM:
		ea := c.effAddr(inst)
		for k := uint8(0); k < inst.NReg; k++ {
			c.SetReg(inst.Rd+isa.Reg(k), c.mem.Read(ea+uint64(k)*8, 8))
		}
		addr, bytes = ea, inst.NReg*8

	case isa.STR, isa.STLR:
		ea := c.effAddr(inst)
		size := 1 << inst.Size
		v0 = r(inst.Rt)
		c.mem.Write(ea, v0, size)
		addr, bytes = ea, uint8(size)
	case isa.STRPOST:
		ea := r(inst.Rn)
		v0 = r(inst.Rt)
		c.mem.Write(ea, v0, 8)
		c.SetReg(inst.Rn, ea+uint64(inst.Imm))
		addr, bytes, v1 = ea, 8, c.Reg(inst.Rn)
	case isa.STP:
		ea := c.effAddr(inst)
		v0, v1 = r(inst.Rt), r(inst.Rt2)
		c.mem.Write(ea, v0, 8)
		c.mem.Write(ea+8, v1, 8)
		addr, bytes = ea, 16

	default:
		panic(fmt.Sprintf("emu: unimplemented opcode %v at pc=%#x", inst.Op, pc))
	}

	// A halted program stays put.
	if !c.halt {
		c.pc = pc + 4
		if taken {
			c.pc = addr
		}
	}

	*rec = trace.Rec{PC: pc, Addr: addr, Op: inst.Op, Flags: inst.Op.Flags(), Bytes: bytes, Taken: taken}
	var dbuf [trace.MaxDests]isa.Reg
	var sbuf [trace.MaxSrcs]isa.Reg
	dsts := inst.Dests(dbuf[:0])
	srcs := inst.Srcs(sbuf[:0])
	rec.NDst = uint8(len(dsts))
	rec.NSrc = uint8(len(srcs))
	copy(rec.Dst[:], dsts)
	copy(rec.Src[:], srcs)

	switch {
	case inst.Op == isa.LDM:
		var vals [trace.MaxDests]uint64
		for i, d := range dsts {
			vals[i] = c.Reg(d)
		}
		copy(rec.Vals[:], vals[:])
		if len(dsts) > trace.InlineDests {
			c.ovf.Add(rec, dsts, vals[:len(dsts)])
		}
	case rec.IsLoad() || rec.IsStore():
		rec.Vals = [trace.InlineDests]uint64{v0, v1}
	default:
		for i, d := range dsts {
			rec.Vals[i] = c.Reg(d)
		}
	}
}

func (c *RefCPU) effAddr(inst *isa.Inst) uint64 {
	ea := c.Reg(inst.Rn) + uint64(inst.Imm)
	if inst.Rm != isa.XZR {
		ea += c.Reg(inst.Rm) << inst.Scale
	}
	return ea
}

// MatchReference drives cpu and ref, which must start from the same
// state, through Next to the end of their streams, and returns the first
// difference it finds: in a record, in an overflow entry, in the length
// of the stream or in the final state.
func MatchReference(cpu *CPU, ref *RefCPU) error {
	var got, want trace.Rec
	for i := 0; ; i++ {
		ok, refOK := cpu.Next(&got), ref.Next(&want)
		if ok != refOK {
			return fmt.Errorf("record %d: Next = %v, reference %v", i, ok, refOK)
		}
		if !ok {
			break
		}
		if got != want {
			return fmt.Errorf("record %d:\n got %+v\nwant %+v", i, got, want)
		}
		for j := trace.InlineDests; j < int(got.NDst); j++ {
			gr, gv := got.DestReg(j, cpu.Overflow()), got.DestValue(j, cpu.Overflow())
			wr, wv := want.DestReg(j, ref.Overflow()), want.DestValue(j, ref.Overflow())
			if gr != wr || gv != wv {
				return fmt.Errorf("record %d destination %d: %v = %#x, reference %v = %#x", i, j, gr, gv, wr, wv)
			}
		}
	}
	if got, want := cpu.Overflow().Bytes(), ref.Overflow().Bytes(); got != want {
		return fmt.Errorf("overflow table holds %d bytes, reference %d", got, want)
	}
	return SameState(cpu.Snapshot(), ref.Snapshot())
}

// SameState returns nil when got and want are bit-identical states, and
// otherwise an error naming the first field that differs.
func SameState(got, want *Snapshot) error {
	switch {
	case got.Seq != want.Seq || got.PC != want.PC || got.Halted != want.Halted:
		return fmt.Errorf("state at seq %d pc %#x halted %v, reference seq %d pc %#x halted %v",
			got.Seq, got.PC, got.Halted, want.Seq, want.PC, want.Halted)
	case got.Regs != want.Regs:
		for r := range got.Regs {
			if got.Regs[r] != want.Regs[r] {
				return fmt.Errorf("%v = %#x, reference %#x", isa.Reg(r), got.Regs[r], want.Regs[r])
			}
		}
	case !got.Mem.Equal(want.Mem):
		return fmt.Errorf("memory differs (%d resident pages, reference %d)", got.Mem.Pages(), want.Mem.Pages())
	}
	return nil
}

// refALU mirrors the emulator's ALU semantics in plain Go; the property
// test cross-checks the interpreter against it on random instruction
// sequences.
func refALU(op isa.Op, a, b uint64, imm int64) uint64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.AND:
		return a & b
	case isa.ORR:
		return a | b
	case isa.EOR:
		return a ^ b
	case isa.LSL:
		return a << (b & 63)
	case isa.LSR:
		return a >> (b & 63)
	case isa.ASR:
		return uint64(int64(a) >> (b & 63))
	case isa.ADDI:
		return a + uint64(imm)
	case isa.SUBI:
		return a - uint64(imm)
	case isa.ANDI:
		return a & uint64(imm)
	case isa.ORRI:
		return a | uint64(imm)
	case isa.EORI:
		return a ^ uint64(imm)
	case isa.LSLI:
		return a << (uint64(imm) & 63)
	case isa.LSRI:
		return a >> (uint64(imm) & 63)
	case isa.MUL:
		return a * b
	case isa.UDIV:
		if b == 0 {
			return 0
		}
		return a / b
	case isa.UREM:
		if b == 0 {
			return 0
		}
		return a % b
	}
	panic("unhandled")
}

var aluOps = []isa.Op{
	isa.ADD, isa.SUB, isa.AND, isa.ORR, isa.EOR, isa.LSL, isa.LSR, isa.ASR,
	isa.ADDI, isa.SUBI, isa.ANDI, isa.ORRI, isa.EORI, isa.LSLI, isa.LSRI,
	isa.MUL, isa.UDIV, isa.UREM,
}

// TestALUAgainstReference generates random straight-line ALU programs and
// checks every destination value the emulator records against the
// reference model evaluated over shadow registers.
func TestALUAgainstReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		s := seed
		next := func(n uint64) uint64 {
			s = s*6364136223846793005 + 1442695040888963407
			return (s >> 33) % n
		}
		b := program.NewBuilder("ref")
		var shadow [16]uint64
		// Seed registers x0..x7 with random values via MOVZ.
		for r := 0; r < 8; r++ {
			v := next(1 << 40)
			b.MovImm(isa.Reg(r), v)
			shadow[r] = v
		}
		for i := 0; i < 200; i++ {
			op := aluOps[next(uint64(len(aluOps)))]
			rd := isa.Reg(next(16))
			rn := isa.Reg(next(16))
			rm := isa.Reg(next(16))
			imm := int64(next(1 << 16))
			switch op {
			case isa.ADDI, isa.SUBI, isa.ANDI, isa.ORRI, isa.EORI, isa.LSLI, isa.LSRI:
				b.OpImm(op, rd, rn, imm)
				shadow[rd] = refALU(op, shadow[rn], 0, imm)
			default:
				b.Op3(op, rd, rn, rm)
				shadow[rd] = refALU(op, shadow[rn], shadow[rm], 0)
			}
		}
		b.Halt()
		cpu := New(b.Build())
		cpu.MaxInstrs = 10_000
		var rec trace.Rec
		for cpu.Next(&rec) {
		}
		// Check final architectural state against the shadow model.
		for r := 0; r < 16; r++ {
			if got := cpu.Reg(isa.Reg(r)); got != shadow[r] {
				t.Fatalf("seed %d: x%d = %#x, shadow %#x", seed, r, got, shadow[r])
			}
		}
	}
}

// memPair drives a Memory and a plain shadow model through the same
// accesses. The shadow is a map of bytes plus the set of pages a write
// has made resident; a read makes none. Every read is checked against the
// shadow, and every access against its resident page count.
type memPair struct {
	t     *testing.T
	m     *Memory
	bytes map[uint64]byte
	pages map[uint64]bool
}

func newMemPair(t *testing.T) *memPair {
	return &memPair{t: t, m: NewMemory(), bytes: map[uint64]byte{}, pages: map[uint64]bool{}}
}

// clone pairs p.m.Clone() with a copy of p's shadow.
func (p *memPair) clone() *memPair {
	return &memPair{t: p.t, m: p.m.Clone(), bytes: maps.Clone(p.bytes), pages: maps.Clone(p.pages)}
}

func (p *memPair) write(addr, v uint64, size int) {
	p.t.Helper()
	p.m.Write(addr, v, size)
	for b := 0; b < size; b++ {
		a := addr + uint64(b)
		p.bytes[a] = byte(v >> (8 * b))
		p.pages[a>>pageShift] = true
	}
	p.checkPages()
}

func (p *memPair) read(addr uint64, size int) {
	p.t.Helper()
	var want uint64
	for b := size - 1; b >= 0; b-- {
		want = want<<8 | uint64(p.bytes[addr+uint64(b)])
	}
	if got := p.m.Read(addr, size); got != want {
		p.t.Fatalf("read %d@%#x = %#x, shadow %#x", size, addr, got, want)
	}
	p.checkPages()
}

func (p *memPair) checkPages() {
	p.t.Helper()
	if got, want := p.m.Pages(), len(p.pages); got != want {
		p.t.Fatalf("%d resident pages, shadow %d", got, want)
	}
}

// TestMemoryAgainstShadowMap cross-checks Memory against the shadow model
// on random-sized accesses and on patterns that drive every transition of
// its last-page cache.
func TestMemoryAgainstShadowMap(t *testing.T) {
	const pg = uint64(pageSize)
	s := uint64(99)
	next := func(n uint64) uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return (s >> 33) % n
	}
	for _, pat := range []struct {
		name string
		run  func(p *memPair)
	}{
		{"random", func(p *memPair) {
			for i := 0; i < 20_000; i++ {
				addr := next(1 << 16)
				size := 1 << next(4)
				if next(2) == 0 {
					p.write(addr, next(1<<62), size)
				} else {
					p.read(addr, size)
				}
			}
		}},
		{"alternating pages", func(p *memPair) {
			for i := uint64(0); i < 64; i++ {
				a, b := 2*pg+8*i, 7*pg+8*i
				p.write(a, i, 8)
				p.write(b, ^i, 8)
				p.read(a, 8)
				p.read(b, 8)
				p.read(a+4, 4)
			}
		}},
		{"absent page read then written", func(p *memPair) {
			p.write(pg, 1, 8) // the cache holds page 1
			p.read(3*pg+40, 8)
			p.write(3*pg+40, 0xfeed, 2)
			p.read(3*pg+40, 8)
			p.read(pg, 8)
		}},
		{"scalars straddling a page boundary", func(p *memPair) {
			boundary := 10 * pg
			for _, size := range []int{2, 4, 8} {
				for back := 1; back < size; back++ {
					boundary += 2 * pg
					addr := boundary - uint64(back)
					p.write(boundary-8, next(1<<62), 8) // only the lower page is resident
					p.read(addr, size)
					p.write(addr, next(1<<62), size)
					p.read(addr, size)
					p.read(boundary-8, 8)
					p.read(boundary, 8)
				}
			}
		}},
	} {
		t.Run(pat.name, func(t *testing.T) { pat.run(newMemPair(t)) })
	}

	t.Run("writes to a clone of a warm source", func(t *testing.T) {
		src := newMemPair(t)
		src.write(4*pg+8, 0xaaaa, 8)
		src.read(4*pg+8, 8) // the source's cache holds page 4
		cp := src.clone()
		cp.write(4*pg+8, 0xbbbb, 8)
		cp.write(4*pg+16, 0xcccc, 4)
		cp.write(9*pg, 1, 8)
		src.read(4*pg+8, 8)
		src.read(4*pg+16, 4)
		src.read(9*pg, 8)
		src.write(4*pg+8, 0xdddd, 8)
		cp.read(4*pg+8, 8)
	})
}
