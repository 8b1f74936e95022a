package uarch

import (
	"reflect"
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/trace"
	"dlvp/internal/workloads"
)

// TestRandomAccessReplayMatchesStreaming: the core reads every stream
// through its trace ring, re-reading slots at random positions when it
// refetches after a squash. A captured stream replayed that way must
// simulate exactly as the live emulator's stream does, for every scheme.
func TestRandomAccessReplayMatchesStreaming(t *testing.T) {
	w, ok := workloads.ByName("perlbmk")
	if !ok {
		t.Fatal("perlbmk not registered")
	}
	const instrs = 30_000
	stream := trace.Capture(w.Reader(instrs), 0)
	for _, tc := range []struct {
		name string
		cfg  config.Core
	}{
		{"baseline", config.Baseline()},
		{"dlvp", config.DLVP()},
		{"vtage", config.VTAGE()},
		{"tournament", config.Tournament()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := w.Build()
			streamed := New(tc.cfg, prog, w.Reader(instrs)).Run(0)
			replayed := New(tc.cfg, prog, stream.Replay()).Run(0)
			if !reflect.DeepEqual(streamed, replayed) {
				t.Errorf("replay diverged from the live stream:\nstream: %+v\nreplay: %+v", streamed, replayed)
			}
		})
	}
}

// TestCapturedWideLoadsReplay holds trace.Capture to live emulation on a
// stream with wide records: crafty's LDMs write more than two registers,
// so its replay reads the captured overflow table, and it must simulate
// exactly as the live stream does.
func TestCapturedWideLoadsReplay(t *testing.T) {
	w, ok := workloads.ByName("crafty")
	if !ok {
		t.Fatal("crafty not registered")
	}
	const instrs = 20_000
	stream := trace.Capture(w.Reader(instrs), 0)
	if stream.Ovf.Bytes() == 0 {
		t.Fatal("crafty's stream has no overflow entries to replay")
	}
	for _, scheme := range []string{"baseline", "dlvp"} {
		cfg, _ := config.ByScheme(scheme)
		live := New(cfg, w.Build(), w.Reader(instrs)).Run(0)
		replayed := New(cfg, w.Build(), stream.Replay()).Run(0)
		if !reflect.DeepEqual(live, replayed) {
			t.Errorf("%s: captured replay diverged from the live stream:\nlive:     %+v\nreplayed: %+v", scheme, live, replayed)
		}
	}
}
