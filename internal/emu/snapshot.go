package emu

import (
	"dlvp/internal/isa"
	"dlvp/internal/program"
)

// Snapshot is a complete architectural checkpoint of a CPU: register
// file, program counter, dynamic instruction count, halt flag, and a
// private copy of the sparse memory. Because the emulator is
// deterministic, a snapshot taken at instruction offset N fully
// determines the rest of the stream — restoring it and continuing
// produces records bit-identical to a fresh emulation run past N.
type Snapshot struct {
	Regs   [isa.NumRegs]uint64
	PC     uint64
	Seq    uint64
	Halted bool
	Mem    *Memory
}

// Snapshot captures the CPU's current architectural state. The memory is
// deep-copied, so the snapshot stays valid while the CPU keeps running.
func (c *CPU) Snapshot() *Snapshot { return c.capture(c.mem.Clone()) }

// Detach captures the CPU's current architectural state like Snapshot but
// hands the CPU's memory over instead of copying it: the snapshot owns it,
// and the CPU must not be used afterwards. It is the way to keep the state
// of an emulator that has done its work.
func (c *CPU) Detach() *Snapshot {
	s := c.capture(c.mem)
	c.mem = nil
	return s
}

func (c *CPU) capture(m *Memory) *Snapshot {
	return &Snapshot{
		Regs:   [isa.NumRegs]uint64(c.regs[:isa.NumRegs]),
		PC:     c.pc,
		Seq:    c.seq,
		Halted: c.halt,
		Mem:    m,
	}
}

// Clone returns an independent deep copy of the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	cp := *s
	cp.Mem = s.Mem.Clone()
	return &cp
}

// Equal reports whether two snapshots describe bit-identical
// architectural state (the invariant the checkpoint tests enforce).
func (s *Snapshot) Equal(other *Snapshot) bool {
	return s.Regs == other.Regs &&
		s.PC == other.PC &&
		s.Seq == other.Seq &&
		s.Halted == other.Halted &&
		s.Mem.Equal(other.Mem)
}

// NewFromSnapshot returns a CPU for program p restored to snapshot s.
// The CPU takes s.Mem over as its memory instead of copying it, so its
// writes land in s.Mem: restore a Clone of s to keep s itself, as the
// checkpoint store does with its resident checkpoints. Executed (and
// MaxInstrs) continue from s.Seq, while the stream it produces starts
// afresh: its first record is position 0, as in a fresh run, and its
// overflow table starts empty.
func NewFromSnapshot(p *program.Program, s *Snapshot) *CPU {
	c := &CPU{
		prog: p,
		mem:  s.Mem,
		pc:   s.PC,
		seq:  s.Seq,
		halt: s.Halted,
	}
	copy(c.regs[:], s.Regs[:])
	c.regs[isa.XZR] = 0 // the slot XZR sources read
	return c
}
