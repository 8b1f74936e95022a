// Package isa defines the mini ARM-flavoured instruction set used by the
// functional emulator and the cycle-level core model.
//
// The ISA is deliberately small but covers every instruction class the paper's
// evaluation depends on: simple and long-latency ALU operations, conditional,
// unconditional, call/return and indirect branches, and — crucially — the
// ARM-style memory instructions that expose the storage-inefficiency problem
// for conventional value predictors: load-pair (LDP), load-multiple (LDM, two
// to sixteen destinations), and 128-bit vector loads (VLD). Load-acquire
// (LDAR) stands in for the memory-ordering instructions that DLVP must never
// predict.
//
// Instructions are 4 bytes for PC-advance purposes (as on AArch64); there is
// no binary encoding — programs are slices of decoded Inst values produced by
// the program builder.
package isa

import "fmt"

// Reg identifies one of the 64 general registers. Registers 0..30 mirror
// AArch64 X registers, register 31 is the hard-wired zero register, and
// registers 32..63 stand in for the 64-bit halves of the SIMD register file
// (used by VLD/VST).
type Reg uint8

// NumRegs is the size of the architectural register file.
const NumRegs = 64

// XZR is the hard-wired zero register: reads return 0, writes are discarded.
const XZR Reg = 31

// String renders a register in assembler syntax.
func (r Reg) String() string {
	switch {
	case r == XZR:
		return "xzr"
	case r < 32:
		return fmt.Sprintf("x%d", uint8(r))
	default:
		return fmt.Sprintf("v%d", uint8(r)-32)
	}
}

// Op enumerates instruction opcodes.
type Op uint8

// Opcode space. The groupings matter: Class() maps each opcode onto the
// pipeline's functional classes and several predictors key off the class.
const (
	NOP Op = iota
	HALT

	// Integer ALU, 1-cycle.
	ADD  // rd = rn + rm
	SUB  // rd = rn - rm
	AND  // rd = rn & rm
	ORR  // rd = rn | rm
	EOR  // rd = rn ^ rm
	LSL  // rd = rn << (rm & 63)
	LSR  // rd = rn >> (rm & 63)
	ASR  // rd = int64(rn) >> (rm & 63)
	ADDI // rd = rn + imm
	SUBI // rd = rn - imm
	ANDI // rd = rn & imm
	ORRI // rd = rn | imm
	EORI // rd = rn ^ imm
	LSLI // rd = rn << imm
	LSRI // rd = rn >> imm
	MOVZ // rd = imm
	CSEL // rd = (rm != 0) ? rn : imm  (select, keeps branches out of kernels)

	// Long-latency integer.
	MUL  // rd = rn * rm, 3-cycle
	MADD // rd = rn*rm + ra, 4-cycle
	UDIV // rd = rn / rm (0 if rm==0), 12-cycle
	UREM // rd = rn % rm (0 if rm==0), 12-cycle

	// Branches. Targets are absolute instruction addresses resolved by the
	// program builder.
	B    // unconditional, PC-relative in spirit: always taken
	BEQ  // taken if rn == rm
	BNE  // taken if rn != rm
	BLT  // taken if int64(rn) < int64(rm)
	BGE  // taken if int64(rn) >= int64(rm)
	BLTU // taken if rn < rm (unsigned)
	BGEU // taken if rn >= rm (unsigned)
	CBZ  // taken if rn == 0
	CBNZ // taken if rn != 0
	BL   // call: rd(link) = PC+4, jump to Target
	RET  // return: jump to rn (predicted via RAS)
	BR   // indirect jump to rn (predicted via ITTAGE)

	// Memory. Effective address = rn + Imm + (rm << Scale); Rm may be XZR.
	LDR     // load SizeLog2 bytes, zero-extended, into rd
	LDRS    // load SizeLog2 bytes, sign-extended, into rd
	LDRPOST // rd = mem[rn]; rn += Imm (post-index: two destinations)
	LDP     // rd,rd2 = mem[ea], mem[ea+8] (two 8-byte destinations)
	LDM     // rd..rd+k = k consecutive 8-byte words (2..16 destinations)
	VLD     // 128-bit vector load: two 8-byte halves into rd, rd2
	LDAR    // load-acquire: like LDR but excluded from address prediction
	STR     // store SizeLog2 bytes from rt
	STRPOST // mem[rn] = rt; rn += Imm (post-index store, one destination: rn)
	STP     // store pair: rt,rt2 to mem[ea], mem[ea+8]
	STLR    // store-release (excluded from prediction, like LDAR)

	numOps
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

var opNames = [...]string{
	NOP: "nop", HALT: "halt",
	ADD: "add", SUB: "sub", AND: "and", ORR: "orr", EOR: "eor",
	LSL: "lsl", LSR: "lsr", ASR: "asr",
	ADDI: "addi", SUBI: "subi", ANDI: "andi", ORRI: "orri", EORI: "eori",
	LSLI: "lsli", LSRI: "lsri", MOVZ: "movz", CSEL: "csel",
	MUL: "mul", MADD: "madd", UDIV: "udiv", UREM: "urem",
	B: "b", BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	BLTU: "bltu", BGEU: "bgeu", CBZ: "cbz", CBNZ: "cbnz",
	BL: "bl", RET: "ret", BR: "br",
	LDR: "ldr", LDRS: "ldrs", LDRPOST: "ldrpost", LDP: "ldp", LDM: "ldm",
	VLD: "vld", LDAR: "ldar",
	STR: "str", STRPOST: "strpost", STP: "stp", STLR: "stlr",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class partitions opcodes by the pipeline resources they use.
type Class uint8

// Functional classes.
const (
	ClassNop Class = iota
	ClassALU
	ClassMul  // 3-4 cycle integer
	ClassDiv  // 12 cycle integer
	ClassBr   // direct conditional/unconditional branches
	ClassCall // BL
	ClassRet  // RET
	ClassJmp  // BR indirect
	ClassLoad
	ClassStore
	ClassHalt
)

var opClasses = [...]Class{
	NOP: ClassNop, HALT: ClassHalt,
	ADD: ClassALU, SUB: ClassALU, AND: ClassALU, ORR: ClassALU, EOR: ClassALU,
	LSL: ClassALU, LSR: ClassALU, ASR: ClassALU,
	ADDI: ClassALU, SUBI: ClassALU, ANDI: ClassALU, ORRI: ClassALU,
	EORI: ClassALU, LSLI: ClassALU, LSRI: ClassALU, MOVZ: ClassALU, CSEL: ClassALU,
	MUL: ClassMul, MADD: ClassMul, UDIV: ClassDiv, UREM: ClassDiv,
	B: ClassBr, BEQ: ClassBr, BNE: ClassBr, BLT: ClassBr, BGE: ClassBr,
	BLTU: ClassBr, BGEU: ClassBr, CBZ: ClassBr, CBNZ: ClassBr,
	BL: ClassCall, RET: ClassRet, BR: ClassJmp,
	LDR: ClassLoad, LDRS: ClassLoad, LDRPOST: ClassLoad, LDP: ClassLoad,
	LDM: ClassLoad, VLD: ClassLoad, LDAR: ClassLoad,
	STR: ClassStore, STRPOST: ClassStore, STP: ClassStore, STLR: ClassStore,
}

// Class returns the functional class of the opcode.
func (o Op) Class() Class {
	if int(o) < len(opClasses) {
		return opClasses[o]
	}
	return ClassNop
}

// IsLoad reports whether the opcode reads memory.
func (o Op) IsLoad() bool { return o.Class() == ClassLoad }

// IsStore reports whether the opcode writes memory.
func (o Op) IsStore() bool { return o.Class() == ClassStore }

// IsMem reports whether the opcode accesses memory.
func (o Op) IsMem() bool { return o.IsLoad() || o.IsStore() }

// IsBranch reports whether the opcode redirects control flow.
func (o Op) IsBranch() bool {
	switch o.Class() {
	case ClassBr, ClassCall, ClassRet, ClassJmp:
		return true
	}
	return false
}

// IsCondBranch reports whether the opcode is a conditional direct branch.
func (o Op) IsCondBranch() bool {
	switch o {
	case BEQ, BNE, BLT, BGE, BLTU, BGEU, CBZ, CBNZ:
		return true
	}
	return false
}

// IsOrdered reports whether the opcode carries memory-ordering semantics.
// The paper excludes such instructions from address prediction.
func (o Op) IsOrdered() bool { return o == LDAR || o == STLR }

// Flags is an opcode's class predicates packed into one byte, so a hot
// loop tests a bit of a value it already holds instead of indexing the
// class table on every call.
type Flags uint8

// Class flag bits; each mirrors the Op predicate of the same name.
const (
	FlagLoad    Flags = 1 << iota // IsLoad
	FlagStore                     // IsStore
	FlagBranch                    // IsBranch
	FlagCondBr                    // IsCondBranch
	FlagOrdered                   // IsOrdered
)

var opFlags = func() (t [numOps]Flags) {
	for o := Op(0); o < numOps; o++ {
		if o.IsLoad() {
			t[o] |= FlagLoad
		}
		if o.IsStore() {
			t[o] |= FlagStore
		}
		if o.IsBranch() {
			t[o] |= FlagBranch
		}
		if o.IsCondBranch() {
			t[o] |= FlagCondBr
		}
		if o.IsOrdered() {
			t[o] |= FlagOrdered
		}
	}
	return t
}()

// Flags returns the opcode's class flags (none for an undefined opcode).
func (o Op) Flags() Flags {
	if int(o) < len(opFlags) {
		return opFlags[o]
	}
	return 0
}

// ExecLatency returns the execution latency in cycles, excluding memory
// access time for loads (the cache model supplies that).
func (o Op) ExecLatency() int {
	switch o.Class() {
	case ClassMul:
		if o == MADD {
			return 4
		}
		return 3
	case ClassDiv:
		return 12
	default:
		return 1
	}
}

// MaxLDMRegs is the architectural limit on LDM destination registers,
// mirroring ARM's load-multiple of the 16 general-purpose registers.
const MaxLDMRegs = 16

// Inst is one decoded instruction. The program builder produces these; the
// emulator interprets them directly.
type Inst struct {
	Op     Op
	Rd     Reg    // first destination (link register for BL)
	Rd2    Reg    // second destination (LDP/VLD)
	Rn     Reg    // first source (base register for memory ops)
	Rm     Reg    // second source (index register for memory ops; XZR = none)
	Rt     Reg    // store data source
	Rt2    Reg    // second store data source (STP)
	Imm    int64  // immediate / displacement
	Target uint64 // branch target (absolute address), resolved by builder
	Size   uint8  // log2 of access bytes for LDR/LDRS/STR/LDAR/STLR (0..3)
	NReg   uint8  // LDM register count (2..16); Rd..Rd+NReg-1 are written
	Scale  uint8  // index register shift for memory addressing
	Label  string // unresolved target label (builder-internal)
}

// Dests appends the destination registers of i to dst and returns it.
// XZR never appears (writes to it are architectural no-ops).
func (i *Inst) Dests(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != XZR {
			dst = append(dst, r)
		}
	}
	switch i.Op {
	case NOP, HALT, B, BEQ, BNE, BLT, BGE, BLTU, BGEU, CBZ, CBNZ, RET, BR,
		STR, STP, STLR:
		return dst
	case BL:
		add(i.Rd)
	case LDP, VLD:
		add(i.Rd)
		add(i.Rd2)
	case LDM:
		for k := uint8(0); k < i.NReg; k++ {
			add(i.Rd + Reg(k))
		}
	case LDRPOST:
		add(i.Rd)
		add(i.Rn) // post-index updates the base
	case STRPOST:
		add(i.Rn)
	default:
		add(i.Rd)
	}
	return dst
}

// Srcs appends the source registers of i to dst and returns it. XZR is
// omitted (it is always ready and always zero).
func (i *Inst) Srcs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != XZR {
			dst = append(dst, r)
		}
	}
	switch i.Op.Class() {
	case ClassNop, ClassHalt, ClassCall:
		if i.Op == BL {
			return dst
		}
		return dst
	case ClassLoad:
		add(i.Rn)
		add(i.Rm)
	case ClassStore:
		add(i.Rn)
		add(i.Rm)
		add(i.Rt)
		if i.Op == STP {
			add(i.Rt2)
		}
	case ClassBr:
		switch i.Op {
		case B:
		case CBZ, CBNZ:
			add(i.Rn)
		default:
			add(i.Rn)
			add(i.Rm)
		}
	case ClassRet, ClassJmp:
		add(i.Rn)
	default:
		switch i.Op {
		case MOVZ:
		case ADDI, SUBI, ANDI, ORRI, EORI, LSLI, LSRI:
			add(i.Rn)
		case CSEL:
			add(i.Rn)
			add(i.Rm)
		case MADD:
			add(i.Rn)
			add(i.Rm)
			add(i.Rt) // accumulator rides in Rt
		default:
			add(i.Rn)
			add(i.Rm)
		}
	}
	return dst
}

// AccessBytes returns the number of bytes transferred by a memory opcode
// (0 for non-memory instructions).
func (i *Inst) AccessBytes() int {
	switch i.Op {
	case LDR, LDRS, LDRPOST, LDAR, STR, STRPOST, STLR:
		return 1 << i.Size
	case LDP, STP, VLD:
		return 16
	case LDM:
		return int(i.NReg) * 8
	}
	return 0
}

// NumDests returns the number of architectural destination registers,
// counting XZR targets as real for predictor-pressure purposes (a value
// predictor would still allocate an entry before discovering the write is
// dead); the emulator suppresses the actual write.
func (i *Inst) NumDests() int {
	switch i.Op {
	case LDP, VLD, LDRPOST:
		return 2
	case LDM:
		return int(i.NReg)
	case STR, STP, STLR, B, BEQ, BNE, BLT, BGE, BLTU, BGEU, CBZ, CBNZ,
		RET, BR, NOP, HALT:
		return 0
	case STRPOST:
		return 1
	default:
		return 1
	}
}

// String disassembles the instruction.
func (i *Inst) String() string {
	switch i.Op.Class() {
	case ClassNop, ClassHalt:
		return i.Op.String()
	case ClassLoad:
		switch i.Op {
		case LDP, VLD:
			return fmt.Sprintf("%s %s,%s, [%s, #%d]", i.Op, i.Rd, i.Rd2, i.Rn, i.Imm)
		case LDM:
			return fmt.Sprintf("ldm %s-%s, [%s, #%d]", i.Rd, i.Rd+Reg(i.NReg-1), i.Rn, i.Imm)
		case LDRPOST:
			return fmt.Sprintf("ldr %s, [%s], #%d", i.Rd, i.Rn, i.Imm)
		}
		if i.Rm != XZR {
			return fmt.Sprintf("%s %s, [%s, %s, lsl #%d]", i.Op, i.Rd, i.Rn, i.Rm, i.Scale)
		}
		return fmt.Sprintf("%s %s, [%s, #%d]", i.Op, i.Rd, i.Rn, i.Imm)
	case ClassStore:
		switch i.Op {
		case STP:
			return fmt.Sprintf("stp %s,%s, [%s, #%d]", i.Rt, i.Rt2, i.Rn, i.Imm)
		case STRPOST:
			return fmt.Sprintf("str %s, [%s], #%d", i.Rt, i.Rn, i.Imm)
		}
		if i.Rm != XZR {
			return fmt.Sprintf("%s %s, [%s, %s, lsl #%d]", i.Op, i.Rt, i.Rn, i.Rm, i.Scale)
		}
		return fmt.Sprintf("%s %s, [%s, #%d]", i.Op, i.Rt, i.Rn, i.Imm)
	case ClassBr:
		switch i.Op {
		case B:
			return fmt.Sprintf("b 0x%x", i.Target)
		case CBZ, CBNZ:
			return fmt.Sprintf("%s %s, 0x%x", i.Op, i.Rn, i.Target)
		}
		return fmt.Sprintf("%s %s, %s, 0x%x", i.Op, i.Rn, i.Rm, i.Target)
	case ClassCall:
		return fmt.Sprintf("bl 0x%x", i.Target)
	case ClassRet:
		return fmt.Sprintf("ret %s", i.Rn)
	case ClassJmp:
		return fmt.Sprintf("br %s", i.Rn)
	}
	switch i.Op {
	case MOVZ:
		return fmt.Sprintf("movz %s, #%d", i.Rd, i.Imm)
	case ADDI, SUBI, ANDI, ORRI, EORI, LSLI, LSRI:
		return fmt.Sprintf("%s %s, %s, #%d", i.Op, i.Rd, i.Rn, i.Imm)
	case CSEL:
		return fmt.Sprintf("csel %s, %s, #%d, %s", i.Rd, i.Rn, i.Imm, i.Rm)
	case MADD:
		return fmt.Sprintf("madd %s, %s, %s, %s", i.Rd, i.Rn, i.Rm, i.Rt)
	}
	return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rn, i.Rm)
}
