package emu

import (
	"fmt"
	"math"
	"math/bits"

	"dlvp/internal/isa"
	"dlvp/internal/program"
	"dlvp/internal/trace"
)

// SPReg is the register the emulator initialises to the stack top; workloads
// that need a stack use it as their stack pointer by convention.
const SPReg = isa.Reg(28)

// sink is the register-file slot that XZR destinations write: it sits one
// past the architectural registers, so no register write tests for XZR,
// and nothing reads it. XZR sources read slot 31, which nothing writes.
const sink = isa.NumRegs

// CPU is the functional interpreter. It implements trace.Reader: each Next
// call executes one instruction and fills in its dynamic record.
type CPU struct {
	prog *program.Program
	dec  *decoded // prog decoded on first execution
	mem  *Memory
	regs [isa.NumRegs + 1]uint64 // the architectural registers and the sink
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
func (c *CPU) Reg(r isa.Reg) uint64 { return c.regs[:isa.NumRegs][r] }

// SetReg sets r (writes to XZR are discarded).
func (c *CPU) SetReg(r isa.Reg, v uint64) {
	if r != isa.XZR {
		c.regs[:isa.NumRegs][r] = v
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
	seq := c.seq
	c.exec(c.MaxInstrs, rec)
	return c.seq != seq
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
	c.exec(limit, nil)
	return c.seq - start
}

// decoded is a program image decoded once for execution: per instruction,
// its operands (code) and the record Next stamps for it (tmpl), both
// indexed by (pc-CodeBase)/4.
type decoded struct {
	code []dinst
	tmpl []trace.Rec
}

// dinst is one decoded instruction. Registers are slots of the CPU's
// register file, destinations XZR mapped to the sink.
type dinst struct {
	imm    uint64 // immediate, displacement or post-index increment
	target uint64 // direct branch target
	op     isa.Op
	d, d2  uint8 // destinations; LDM's d is its first register, unmapped
	n, m   uint8 // sources; a memory operation's base and index
	t, t2  uint8 // store data sources; MADD's addend in t
	scale  uint8 // index register shift
	sext   uint8 // LDRS: the shift that sign-extends a loaded value
	size   uint8 // scalar access bytes; LDM's register count
}

// decode builds p's decoded table, which depends on p alone.
func decode(p *program.Program) *decoded {
	d := &decoded{code: make([]dinst, len(p.Code)), tmpl: make([]trace.Rec, len(p.Code))}
	dst := func(r isa.Reg) uint8 {
		if r == isa.XZR {
			return sink
		}
		return uint8(r)
	}
	for i := range p.Code {
		inst := &p.Code[i]
		di := dinst{
			imm: uint64(inst.Imm), target: inst.Target, op: inst.Op,
			d: dst(inst.Rd), d2: dst(inst.Rd2),
			n: uint8(inst.Rn), m: uint8(inst.Rm), t: uint8(inst.Rt), t2: uint8(inst.Rt2),
			scale: inst.Scale, size: 1 << inst.Size,
		}
		bytes := di.size
		switch inst.Op {
		case isa.LDRS:
			di.sext = 64 - 8*di.size
		case isa.LDRPOST:
			di.d2, bytes = dst(inst.Rn), 8
		case isa.STRPOST:
			di.d, bytes = dst(inst.Rn), 8
		case isa.LDP, isa.VLD, isa.STP:
			bytes = 16
		case isa.LDM:
			di.d, di.size, bytes = uint8(inst.Rd), inst.NReg, inst.NReg*8
		}
		d.code[i] = di

		rec := trace.Rec{PC: p.PCOf(i), Op: inst.Op, Flags: inst.Op.Flags()}
		if inst.Op.IsMem() {
			rec.Bytes = bytes
		}
		var dbuf [trace.MaxDests]isa.Reg
		var sbuf [trace.MaxSrcs]isa.Reg
		dsts, srcs := inst.Dests(dbuf[:0]), inst.Srcs(sbuf[:0])
		rec.NDst, rec.NSrc = uint8(len(dsts)), uint8(len(srcs))
		copy(rec.Dst[:], dsts)
		copy(rec.Src[:], srcs)
		d.tmpl[i] = rec
	}
	return d
}

// exec is the interpreter, the one loop behind Run and Next. It executes
// from the CPU's state until the program halts or the dynamic count
// reaches limit (0: no limit). With rec nil it builds no record; otherwise
// it executes at most one instruction and fills rec with its record.
func (c *CPU) exec(limit uint64, rec *trace.Rec) {
	if c.halt {
		return
	}
	if c.dec == nil {
		c.dec = decode(c.prog)
	}
	if limit == 0 {
		limit = math.MaxUint64
	}
	code, regs, mem := c.dec.code, &c.regs, c.mem
	pc, seq := c.pc, c.seq
	for seq < limit {
		// A PC outside the code segment or off the 4-byte grid rotates
		// to an index past the table's end, which halts the program.
		idx := bits.RotateLeft64(pc-program.CodeBase, -2)
		if idx >= uint64(len(code)) {
			c.halt = true
			break
		}
		in := &code[idx]
		seq++
		next := pc + 4

		// What the record reports besides the registers: a branch's
		// direction and target (addr), or a memory operation's address
		// and the words it loads or stores (v0, v1).
		var (
			taken  bool
			addr   uint64
			v0, v1 uint64
		)
		switch in.op {
		case isa.NOP:
		case isa.HALT:
			// A halted program stays put.
			c.halt, next, limit = true, pc, seq

		case isa.ADD:
			regs[in.d] = regs[in.n] + regs[in.m]
		case isa.SUB:
			regs[in.d] = regs[in.n] - regs[in.m]
		case isa.AND:
			regs[in.d] = regs[in.n] & regs[in.m]
		case isa.ORR:
			regs[in.d] = regs[in.n] | regs[in.m]
		case isa.EOR:
			regs[in.d] = regs[in.n] ^ regs[in.m]
		case isa.LSL:
			regs[in.d] = regs[in.n] << (regs[in.m] & 63)
		case isa.LSR:
			regs[in.d] = regs[in.n] >> (regs[in.m] & 63)
		case isa.ASR:
			regs[in.d] = uint64(int64(regs[in.n]) >> (regs[in.m] & 63))
		case isa.ADDI:
			regs[in.d] = regs[in.n] + in.imm
		case isa.SUBI:
			regs[in.d] = regs[in.n] - in.imm
		case isa.ANDI:
			regs[in.d] = regs[in.n] & in.imm
		case isa.ORRI:
			regs[in.d] = regs[in.n] | in.imm
		case isa.EORI:
			regs[in.d] = regs[in.n] ^ in.imm
		case isa.LSLI:
			regs[in.d] = regs[in.n] << (in.imm & 63)
		case isa.LSRI:
			regs[in.d] = regs[in.n] >> (in.imm & 63)
		case isa.MOVZ:
			regs[in.d] = in.imm
		case isa.CSEL:
			v := in.imm
			if regs[in.m] != 0 {
				v = regs[in.n]
			}
			regs[in.d] = v
		case isa.MUL:
			regs[in.d] = regs[in.n] * regs[in.m]
		case isa.MADD:
			regs[in.d] = regs[in.n]*regs[in.m] + regs[in.t]
		case isa.UDIV:
			var v uint64
			if dv := regs[in.m]; dv != 0 {
				v = regs[in.n] / dv
			}
			regs[in.d] = v
		case isa.UREM:
			var v uint64
			if dv := regs[in.m]; dv != 0 {
				v = regs[in.n] % dv
			}
			regs[in.d] = v

		case isa.B:
			taken, addr = true, in.target
		case isa.BEQ:
			taken, addr = regs[in.n] == regs[in.m], in.target
		case isa.BNE:
			taken, addr = regs[in.n] != regs[in.m], in.target
		case isa.BLT:
			taken, addr = int64(regs[in.n]) < int64(regs[in.m]), in.target
		case isa.BGE:
			taken, addr = int64(regs[in.n]) >= int64(regs[in.m]), in.target
		case isa.BLTU:
			taken, addr = regs[in.n] < regs[in.m], in.target
		case isa.BGEU:
			taken, addr = regs[in.n] >= regs[in.m], in.target
		case isa.CBZ:
			taken, addr = regs[in.n] == 0, in.target
		case isa.CBNZ:
			taken, addr = regs[in.n] != 0, in.target
		case isa.BL:
			regs[in.d] = pc + 4
			taken, addr = true, in.target
		case isa.RET, isa.BR:
			taken, addr = true, regs[in.n]

		case isa.LDR, isa.LDAR:
			addr = regs[in.n] + in.imm + regs[in.m]<<in.scale
			v0 = mem.Read(addr, int(in.size))
			regs[in.d] = v0
		case isa.LDRS:
			addr = regs[in.n] + in.imm + regs[in.m]<<in.scale
			v0 = uint64(int64(mem.Read(addr, int(in.size))<<in.sext) >> in.sext)
			regs[in.d] = v0
		case isa.LDRPOST:
			addr = regs[in.n]
			v0, v1 = mem.Read(addr, 8), addr+in.imm
			regs[in.d] = v0
			regs[in.d2] = v1
		case isa.LDP, isa.VLD:
			addr = regs[in.n] + in.imm + regs[in.m]<<in.scale
			v0, v1 = mem.Read(addr, 8), mem.Read(addr+8, 8)
			regs[in.d] = v0
			regs[in.d2] = v1
		case isa.LDM:
			addr = regs[in.n] + in.imm + regs[in.m]<<in.scale
			for k := uint8(0); k < in.size; k++ {
				r := in.d + k
				if r == uint8(isa.XZR) {
					r = sink
				}
				regs[r] = mem.Read(addr+uint64(k)*8, 8)
			}

		case isa.STR, isa.STLR:
			addr = regs[in.n] + in.imm + regs[in.m]<<in.scale
			v0 = regs[in.t]
			mem.Write(addr, v0, int(in.size))
		case isa.STRPOST:
			addr = regs[in.n]
			v0 = regs[in.t]
			mem.Write(addr, v0, 8)
			regs[in.d] = addr + in.imm
			v1 = regs[in.n] // the updated base; XZR reads 0
		case isa.STP:
			addr = regs[in.n] + in.imm + regs[in.m]<<in.scale
			v0, v1 = regs[in.t], regs[in.t2]
			mem.Write(addr, v0, 8)
			mem.Write(addr+8, v1, 8)

		default:
			panic(fmt.Sprintf("emu: unimplemented opcode %v at pc=%#x", in.op, pc))
		}
		if taken {
			next = addr
		}
		if rec != nil {
			c.stamp(rec, idx, taken, addr, v0, v1)
			limit = seq
		}
		pc = next
	}
	c.pc, c.seq = pc, seq
}

// stamp fills rec with the record of instruction idx, just executed: its
// template plus what the execution decided.
func (c *CPU) stamp(rec *trace.Rec, idx uint64, taken bool, addr, v0, v1 uint64) {
	t := &c.dec.tmpl[idx]
	*rec = *t
	rec.Addr, rec.Taken = addr, taken
	switch {
	case t.Op == isa.LDM:
		// One value per destination, in Dests order: the word loaded for
		// XZR was discarded along with its register write. The first
		// InlineDests go in the record, the rest to the overflow table.
		var dsts [trace.MaxDests]isa.Reg
		var vals [trace.MaxDests]uint64
		in := &c.dec.code[idx]
		n := 0
		for k := uint8(0); k < in.size; k++ {
			if r := isa.Reg(in.d + k); r != isa.XZR {
				dsts[n], vals[n] = r, c.regs[r]
				n++
			}
		}
		copy(rec.Vals[:], vals[:])
		if n > trace.InlineDests {
			c.ovf.Add(rec, dsts[:n], vals[:n])
		}
	case t.Flags&(isa.FlagLoad|isa.FlagStore) != 0:
		// Loads record the words they read and stores the data they
		// wrote, with STRPOST's updated base in Vals[1] (see
		// trace.DestValue).
		rec.Vals = [trace.InlineDests]uint64{v0, v1}
	case t.NDst > 0:
		// Value predictors in "all instructions" mode need the value of
		// every destination; other instructions write at most one.
		rec.Vals[0] = c.regs[t.Dst[0]]
	}
}
