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
	if c.halt || (c.MaxInstrs > 0 && c.seq >= c.MaxInstrs) {
		return false
	}
	inst := c.prog.InstAt(c.pc)
	if inst == nil {
		c.halt = true
		return false
	}
	c.step(inst, rec)
	return true
}

func (c *CPU) step(inst *isa.Inst, rec *trace.Rec) {
	*rec = trace.Rec{PC: c.pc, Op: inst.Op, Flags: inst.Op.Flags()}
	c.seq++
	nextPC := c.pc + 4

	// Record register dataflow. The first InlineDests destinations go in the
	// record; a wide LDM's rest go to the overflow table below.
	var dbuf [trace.MaxDests]isa.Reg
	var sbuf [trace.MaxSrcs]isa.Reg
	dsts := inst.Dests(dbuf[:0])
	srcs := inst.Srcs(sbuf[:0])
	rec.NDst = uint8(len(dsts))
	rec.NSrc = uint8(len(srcs))
	copy(rec.Dst[:], dsts)
	copy(rec.Src[:], srcs)

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
		rec.Taken = true
		rec.Addr = inst.Target
		nextPC = inst.Target
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		taken := false
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
		rec.Taken = taken
		rec.Addr = inst.Target
		if taken {
			nextPC = inst.Target
		}
	case isa.CBZ:
		rec.Taken = r(inst.Rn) == 0
		rec.Addr = inst.Target
		if rec.Taken {
			nextPC = inst.Target
		}
	case isa.CBNZ:
		rec.Taken = r(inst.Rn) != 0
		rec.Addr = inst.Target
		if rec.Taken {
			nextPC = inst.Target
		}
	case isa.BL:
		c.SetReg(inst.Rd, c.pc+4)
		rec.Taken = true
		rec.Addr = inst.Target
		nextPC = inst.Target
	case isa.RET, isa.BR:
		rec.Taken = true
		rec.Addr = r(inst.Rn)
		nextPC = rec.Addr

	case isa.LDR, isa.LDRS, isa.LDAR:
		ea := c.effAddr(inst)
		size := 1 << inst.Size
		v := c.mem.Read(ea, size)
		if inst.Op == isa.LDRS && size < 8 {
			shift := uint(64 - 8*size)
			v = uint64(int64(v<<shift) >> shift)
		}
		c.SetReg(inst.Rd, v)
		rec.Addr, rec.Bytes = ea, uint8(size)
		rec.Vals[0] = v
	case isa.LDRPOST:
		ea := r(inst.Rn)
		v := c.mem.Read(ea, 8)
		c.SetReg(inst.Rd, v)
		newBase := ea + uint64(inst.Imm)
		c.SetReg(inst.Rn, newBase)
		rec.Addr, rec.Bytes = ea, 8
		rec.Vals[0], rec.Vals[1] = v, newBase
	case isa.LDP, isa.VLD:
		ea := c.effAddr(inst)
		v0 := c.mem.Read(ea, 8)
		v1 := c.mem.Read(ea+8, 8)
		c.SetReg(inst.Rd, v0)
		c.SetReg(inst.Rd2, v1)
		rec.Addr, rec.Bytes = ea, 16
		rec.Vals[0], rec.Vals[1] = v0, v1
	case isa.LDM:
		// One value per destination, in Dests order: the word loaded for
		// XZR is discarded along with its register write.
		ea := c.effAddr(inst)
		var vals [trace.MaxDests]uint64
		n := 0
		for k := uint8(0); k < inst.NReg; k++ {
			v := c.mem.Read(ea+uint64(k)*8, 8)
			rd := inst.Rd + isa.Reg(k)
			c.SetReg(rd, v)
			if rd != isa.XZR {
				vals[n] = v
				n++
			}
		}
		copy(rec.Vals[:], vals[:n])
		if n > trace.InlineDests {
			c.ovf.Add(rec, dsts, vals[:n])
		}
		rec.Addr, rec.Bytes = ea, inst.NReg*8

	case isa.STR, isa.STLR:
		ea := c.effAddr(inst)
		size := 1 << inst.Size
		v := r(inst.Rt)
		c.mem.Write(ea, v, size)
		rec.Addr, rec.Bytes = ea, uint8(size)
		rec.Vals[0] = v
	case isa.STRPOST:
		ea := r(inst.Rn)
		v := r(inst.Rt)
		c.mem.Write(ea, v, 8)
		c.SetReg(inst.Rn, ea+uint64(inst.Imm))
		rec.Addr, rec.Bytes = ea, 8
		rec.Vals[0] = v
	case isa.STP:
		ea := c.effAddr(inst)
		v0, v1 := r(inst.Rt), r(inst.Rt2)
		c.mem.Write(ea, v0, 8)
		c.mem.Write(ea+8, v1, 8)
		rec.Addr, rec.Bytes = ea, 16
		rec.Vals[0], rec.Vals[1] = v0, v1

	default:
		panic(fmt.Sprintf("emu: unimplemented opcode %v at pc=%#x", inst.Op, c.pc))
	}

	// Record destination values for non-memory instructions (value predictors
	// in "all instructions" mode need them). Memory records already filled
	// Vals explicitly — and stores reuse Vals for the stored data, with
	// STRPOST's updated base stashed in Vals[1] (see trace.DestValue).
	if !inst.Op.IsMem() {
		for i, d := range dsts {
			rec.Vals[i] = c.Reg(d)
		}
	} else if inst.Op == isa.STRPOST {
		rec.Vals[1] = c.Reg(inst.Rn)
	}

	rec.Next = nextPC
	if !c.halt {
		c.pc = nextPC
	} else {
		rec.Next = c.pc
	}
}

func (c *CPU) effAddr(inst *isa.Inst) uint64 {
	ea := c.Reg(inst.Rn) + uint64(inst.Imm)
	if inst.Rm != isa.XZR {
		ea += c.Reg(inst.Rm) << inst.Scale
	}
	return ea
}

// Run executes until halt or max instructions, discarding records; it returns
// the number of instructions executed. Useful for functional tests.
func (c *CPU) Run(max uint64) uint64 {
	var rec trace.Rec
	start := c.seq
	// Run discards its records, so it drops their overflow entries too.
	defer func(ovf trace.Overflow) { c.ovf = ovf }(c.ovf)
	prev := c.MaxInstrs
	if max > 0 {
		c.MaxInstrs = c.seq + max
	}
	for c.Next(&rec) {
	}
	c.MaxInstrs = prev
	return c.seq - start
}
