package emu

import (
	"fmt"

	"dlvp/internal/isa"
	"dlvp/internal/program"
	"dlvp/internal/trace"
)

// SPReg is the register the emulator initialises to the stack top; workloads
// that need a stack use it as their stack pointer by convention.
const SPReg = isa.Reg(28)

// CPU is the functional interpreter. It implements trace.Reader: each Next
// call executes one instruction and fills in its dynamic record.
type CPU struct {
	prog *program.Program
	mem  *Memory
	regs [isa.NumRegs]uint64
	pc   uint64
	seq  uint64
	halt bool
	ovf  trace.Overflow // extra destinations of the wide records delivered

	// MaxInstrs, when non-zero, bounds the number of records produced.
	MaxInstrs uint64
}

// New returns a CPU ready to execute p from its entry point, with memory
// initialised from the program image and SPReg pointing at the stack top.
func New(p *program.Program) *CPU {
	c := &CPU{
		prog: p,
		mem:  NewMemoryFromProgram(p),
		pc:   p.Entry,
	}
	c.regs[SPReg] = program.StackTop
	return c
}

// Mem exposes the emulator's live memory (tests use it to inspect results).
func (c *CPU) Mem() *Memory { return c.mem }

// Reg returns the current value of r.
func (c *CPU) Reg(r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return c.regs[r]
}

// SetReg sets r (writes to XZR are discarded).
func (c *CPU) SetReg(r isa.Reg, v uint64) {
	if r != isa.XZR {
		c.regs[r] = v
	}
}

// PC returns the current program counter.
func (c *CPU) PC() uint64 { return c.pc }

// Halted reports whether the program has executed HALT or run off the end of
// the code segment.
func (c *CPU) Halted() bool { return c.halt }

// Executed returns the number of instructions executed so far.
func (c *CPU) Executed() uint64 { return c.seq }

// Overflow returns the table the wide records Next delivers index (see
// trace.OverflowOf).
func (c *CPU) Overflow() *trace.Overflow { return &c.ovf }

// Next executes one instruction and fills rec with its dynamic record.
// It returns false once the program has halted or MaxInstrs is reached.
func (c *CPU) Next(rec *trace.Rec) bool {
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
func (c *CPU) fetch(limit uint64) *isa.Inst {
	if c.halt || (limit > 0 && c.seq >= limit) {
		return nil
	}
	inst := c.prog.InstAt(c.pc)
	if inst == nil {
		c.halt = true
	}
	return inst
}

// step executes inst. When rec is non-nil it also fills rec with the
// instruction's dynamic record; Run passes nil and no record is built.
func (c *CPU) step(inst *isa.Inst, rec *trace.Rec) {
	pc := c.pc
	c.seq++

	// What the record reports besides the opcode and its registers: a
	// branch's direction and target (addr), or a memory operation's
	// address, size and the words it loads or stores (v0, v1).
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

	// A halted program stays put: its HALT record's successor is itself.
	nextPC := pc
	if !c.halt {
		nextPC = pc + 4
		if taken {
			nextPC = addr
		}
		c.pc = nextPC
	}
	if rec == nil {
		return
	}

	*rec = trace.Rec{PC: pc, Next: nextPC, Addr: addr, Op: inst.Op, Flags: inst.Op.Flags(), Bytes: bytes, Taken: taken}
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
		// One value per destination, in Dests order: the word loaded for
		// XZR was discarded along with its register write. The first
		// InlineDests go in the record, the rest to the overflow table.
		var vals [trace.MaxDests]uint64
		for i, d := range dsts {
			vals[i] = c.Reg(d)
		}
		copy(rec.Vals[:], vals[:])
		if len(dsts) > trace.InlineDests {
			c.ovf.Add(rec, dsts, vals[:len(dsts)])
		}
	case rec.IsLoad() || rec.IsStore():
		// Loads record the words they read and stores the data they
		// wrote, with STRPOST's updated base in Vals[1] (see
		// trace.DestValue).
		rec.Vals = [trace.InlineDests]uint64{v0, v1}
	default:
		// Value predictors in "all instructions" mode need the value of
		// every destination.
		for i, d := range dsts {
			rec.Vals[i] = c.Reg(d)
		}
	}
}

func (c *CPU) effAddr(inst *isa.Inst) uint64 {
	ea := c.Reg(inst.Rn) + uint64(inst.Imm)
	if inst.Rm != isa.XZR {
		ea += c.Reg(inst.Rm) << inst.Scale
	}
	return ea
}

// Run is the record-free fast-forward that checkpoints use to cross the
// gaps between measured windows: it executes without building records
// until the program halts or max more instructions have run (max 0 leaves
// the bound to MaxInstrs), and returns the number executed.
func (c *CPU) Run(max uint64) uint64 {
	start, limit := c.seq, c.MaxInstrs
	if max > 0 {
		limit = c.seq + max
	}
	for inst := c.fetch(limit); inst != nil; inst = c.fetch(limit) {
		c.step(inst, nil)
	}
	return c.seq - start
}
