package uarch

import (
	"reflect"
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/trace"
	"dlvp/internal/workloads"
)

// streamOnly hides the *trace.SliceReader type, forcing the core onto the
// staging-ring path.
type streamOnly struct{ r *trace.SliceReader }

func (s streamOnly) Next(rec *trace.Rec) bool { return s.r.Next(rec) }

// TestRandomAccessReplayMatchesStreaming locks the zero-copy replay path
// to the streaming path: the same trace through the same configuration
// must produce identical RunStats either way, for every scheme.
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
			streamed := New(tc.cfg, prog, streamOnly{stream.Replay()}).Run(0)
			random := New(tc.cfg, prog, stream.Replay()).Run(0)
			if !reflect.DeepEqual(streamed, random) {
				t.Errorf("random-access replay diverged from streaming replay:\nstream: %+v\nrandom: %+v", streamed, random)
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
