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
	recs := trace.Collect(w.Reader(instrs), 0)
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
			streamed := New(tc.cfg, prog, streamOnly{&trace.SliceReader{Recs: recs}}).Run(0)
			random := New(tc.cfg, prog, &trace.SliceReader{Recs: recs}).Run(0)
			if !reflect.DeepEqual(streamed, random) {
				t.Errorf("random-access replay diverged from streaming replay:\nstream: %+v\nrandom: %+v", streamed, random)
			}
		})
	}
}
