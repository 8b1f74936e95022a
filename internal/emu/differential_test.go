package emu_test

import (
	"testing"

	"dlvp/internal/emu"
	"dlvp/internal/workloads"
)

// TestDecodedMatchesReference holds the decoded interpreter to the
// reference one on every workload: Next must deliver the reference's
// records byte for byte, overflow entries included, and end in its state,
// and Run must reach that state too.
func TestDecodedMatchesReference(t *testing.T) {
	const instrs = 200_000
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Build()
			cpu, ref := emu.New(prog), emu.NewRef(prog)
			cpu.MaxInstrs, ref.MaxInstrs = instrs, instrs
			if err := emu.MatchReference(cpu, ref); err != nil {
				t.Fatal(err)
			}
			fast := emu.New(prog)
			fast.Run(instrs)
			if err := emu.SameState(fast.Snapshot(), ref.Snapshot()); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}
