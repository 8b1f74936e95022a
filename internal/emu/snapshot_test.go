package emu_test

import (
	"testing"

	"dlvp/internal/emu"
	"dlvp/internal/isa"
	"dlvp/internal/program"
	"dlvp/internal/trace"
	"dlvp/internal/workloads"
)

// advance drives cpu through the record path, Next, for n instructions.
// Run's record-free fast-forward is what checkpoints are built with, so
// reference states come from Next instead.
func advance(cpu *emu.CPU, n uint64) {
	var rec trace.Rec
	for i := uint64(0); i < n && cpu.Next(&rec); i++ {
	}
}

func snapshotWorkload(t testing.TB) workloads.Workload {
	t.Helper()
	w, ok := workloads.ByName("perlbmk")
	if !ok {
		t.Fatal("perlbmk missing from registry")
	}
	return w
}

// TestEmulationDeterministic is the determinism regression the whole
// checkpoint subsystem leans on: emulating the same workload twice to
// the same offset must yield bit-identical architectural state — same
// registers, PC, seq, halt flag, and resident page set.
func TestEmulationDeterministic(t *testing.T) {
	w := snapshotWorkload(t)
	const offset = 25_000
	runTo := func() *emu.Snapshot {
		cpu := emu.New(w.Build())
		advance(cpu, offset)
		if cpu.Executed() != offset {
			t.Fatalf("stopped at %d, want %d", cpu.Executed(), offset)
		}
		return cpu.Snapshot()
	}
	a, b := runTo(), runTo()
	if !a.Equal(b) {
		t.Fatal("two emulations of the same workload diverge at the same offset")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	w := snapshotWorkload(t)
	cpu := emu.New(w.Build())
	advance(cpu, 1_000)
	snap := cpu.Snapshot()
	ref := snap.Clone()

	// The CPU keeps running; the snapshot must not move.
	cpu.Run(5_000)
	if !snap.Equal(ref) {
		t.Error("snapshot mutated by continued execution")
	}

	// A restored CPU takes over the memory of the snapshot it is given,
	// so restoring a clone leaves the original untouched.
	cp := snap.Clone()
	re := emu.NewFromSnapshot(w.Build(), cp)
	if re.Mem() != cp.Mem {
		t.Error("restored CPU copied the snapshot's memory instead of taking it over")
	}
	re.Run(5_000)
	if !snap.Equal(ref) {
		t.Error("snapshot mutated by a CPU restored from its clone")
	}
}

// TestDetachHandsOverMemory: Detach captures the same state as Snapshot
// and hands over the CPU's memory instead of copying it.
func TestDetachHandsOverMemory(t *testing.T) {
	w := snapshotWorkload(t)
	cpu := emu.New(w.Build())
	advance(cpu, 1_000)
	live := cpu.Mem()
	want := cpu.Snapshot()
	got := cpu.Detach()
	if !got.Equal(want) {
		t.Fatal("detached state differs from a snapshot taken at the same point")
	}
	if got.Mem != live {
		t.Error("Detach copied the memory instead of handing it over")
	}
}

// TestRestoredStreamMatchesLive: restore + continue is bit-identical to
// never stopping, including the absolute Seq numbering.
func TestRestoredStreamMatchesLive(t *testing.T) {
	w := snapshotWorkload(t)
	const offset = 2_000
	live := emu.New(w.Build())
	advance(live, offset)
	snap := live.Snapshot()
	if snap.Seq != offset {
		t.Fatalf("snapshot Seq = %d, want %d", snap.Seq, offset)
	}
	restored := emu.NewFromSnapshot(w.Build(), snap)
	if restored.Executed() != offset {
		t.Fatalf("restored Executed = %d, want %d", restored.Executed(), offset)
	}
	var lr, rr trace.Rec
	for i := 0; i < 3_000; i++ {
		if live.Next(&lr) != restored.Next(&rr) {
			t.Fatal("streams end at different points")
		}
		if lr != rr {
			t.Fatalf("record %d diverges after restore:\n live: %+v\n rest: %+v", i, lr, rr)
		}
	}
}

func TestSnapshotEqualDetectsDifferences(t *testing.T) {
	w := snapshotWorkload(t)
	cpu := emu.New(w.Build())
	advance(cpu, 500)
	base := cpu.Snapshot()

	mutants := map[string]func(*emu.Snapshot){
		"register": func(s *emu.Snapshot) { s.Regs[3]++ },
		"pc":       func(s *emu.Snapshot) { s.PC += 4 },
		"seq":      func(s *emu.Snapshot) { s.Seq++ },
		"halt":     func(s *emu.Snapshot) { s.Halted = !s.Halted },
		"memory":   func(s *emu.Snapshot) { s.Mem.SetByteAt(0, s.Mem.ByteAt(0)+1) },
	}
	for name, mutate := range mutants {
		m := base.Clone()
		mutate(m)
		if base.Equal(m) {
			t.Errorf("%s mutation not detected by Equal", name)
		}
	}
	if !base.Equal(base.Clone()) {
		t.Error("clone compares unequal")
	}
}

// TestRestoreKeepsXZRZero: XZR sources read a register-file slot that
// nothing writes, so a restore must zero that slot even when the
// snapshot's XZR entry is not zero.
func TestRestoreKeepsXZRZero(t *testing.T) {
	b := program.NewBuilder("xzr")
	b.Add(1, isa.XZR, isa.XZR)
	b.Halt()
	prog := b.Build()
	snap := emu.New(prog).Snapshot()
	snap.Regs[isa.XZR] = 0xdead
	cpu := emu.NewFromSnapshot(prog, snap)
	var rec trace.Rec
	cpu.Next(&rec)
	if cpu.Reg(isa.XZR) != 0 || cpu.Reg(1) != 0 {
		t.Errorf("after a restore xzr = %#x and xzr+xzr = %#x, want 0 and 0", cpu.Reg(isa.XZR), cpu.Reg(1))
	}
}
