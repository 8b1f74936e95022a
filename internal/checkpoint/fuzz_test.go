package checkpoint_test

import (
	"bytes"
	"testing"

	"dlvp/internal/checkpoint"
	"dlvp/internal/emu"
)

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder.
// It must never panic, and an encoding it accepts must re-encode to
// exactly the bytes it read: Decode accepts only what Encode writes, so
// the content hash of a stored checkpoint fingerprints one state. The
// committed corpus in testdata/fuzz/FuzzCheckpointDecode holds checkpoints
// of two kernels.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(checkpoint.Encode(&emu.Snapshot{Mem: emu.NewMemory()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := checkpoint.Decode(data)
		if err != nil {
			return
		}
		if again := checkpoint.Encode(s); !bytes.Equal(again, data) {
			t.Fatalf("accepted an encoding that re-encodes differently:\nread %x\n got %x", data, again)
		}
	})
}
