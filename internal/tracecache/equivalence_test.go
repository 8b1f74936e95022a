package tracecache_test

import (
	"context"
	"encoding/json"
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/runner"
	"dlvp/internal/trace"
	"dlvp/internal/tracecache"
	"dlvp/internal/uarch"
	"dlvp/internal/workloads"
)

func statsJSON(t *testing.T, s metrics.RunStats) string {
	t.Helper()
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal RunStats: %v", err)
	}
	return string(enc)
}

// TestReplayEquivalence proves the trace cache's correctness claim: for
// every registered workload, a timing simulation fed by (a) live
// emulation, (b) the capturing reader, and (c) a pure replay produces
// bit-identical RunStats — and both cached readers are served zero-copy,
// as a *trace.SliceReader the core indexes in place. CI runs this under
// -race.
func TestReplayEquivalence(t *testing.T) {
	const instrs = 3_000
	cfg := config.DLVP()
	tc := tracecache.New(64 << 20)

	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			live := statsJSON(t, uarch.New(cfg, w.Build(), w.Reader(instrs)).Run(0))

			run := func(want tracecache.Outcome) string {
				r, release, outcome := tc.Reader(w.Name, instrs, func() trace.Reader {
					return w.Reader(instrs)
				})
				defer release()
				if outcome != want {
					t.Fatalf("outcome %q, want %q", outcome, want)
				}
				if _, ok := r.(*trace.SliceReader); !ok {
					t.Errorf("%s reader is a %T, want a *trace.SliceReader", want, r)
				}
				return statsJSON(t, uarch.New(cfg, w.Build(), r).Run(0))
			}
			captured := run(tracecache.OutcomeCapture)
			replayed := run(tracecache.OutcomeReplay)

			if captured != live {
				t.Errorf("capture-pass RunStats diverge from live emulation:\n live: %s\n capt: %s", live, captured)
			}
			if replayed != live {
				t.Errorf("replayed RunStats diverge from live emulation:\n live: %s\n rply: %s", live, replayed)
			}
		})
	}
}

// TestMatrixEmulatesOncePerWorkload is the ISSUE's acceptance criterion: a
// 4-configuration × 8-workload matrix through the runner performs exactly
// 8 functional emulations — one capture per workload, every other job a
// replay or an in-flight follow.
func TestMatrixEmulatesOncePerWorkload(t *testing.T) {
	const instrs = 5_000
	tc := tracecache.New(256 << 20)
	r := runner.New(runner.Options{CacheEntries: -1, TraceCache: tc})

	configs := []config.Core{config.Baseline(), config.DLVP(), config.VTAGE(), config.CAPDLVP()}
	names := workloads.Names()[:8]
	var jobs []runner.Job
	for _, cfg := range configs {
		for _, name := range names {
			jobs = append(jobs, runner.Job{Workload: name, Config: cfg, Instrs: instrs})
		}
	}
	results, err := r.RunAll(context.Background(), jobs, runner.Matrix{})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}

	s := tc.Stats()
	if s.Emulations != int64(len(names)) {
		t.Errorf("matrix ran %d emulations, want %d (one per workload)", s.Emulations, len(names))
	}
	if s.CapturesDone != int64(len(names)) || s.Bypasses != 0 {
		t.Errorf("captures done=%d bypasses=%d, want %d/0", s.CapturesDone, s.Bypasses, len(names))
	}
	if hits := s.Replays + s.Follows; hits != int64(len(jobs)-len(names)) {
		t.Errorf("replays+follows = %d, want %d", hits, len(jobs)-len(names))
	}

	// Replayed results must match a cache-free rerun bit for bit.
	plain := runner.New(runner.Options{CacheEntries: -1})
	for i, job := range jobs {
		want, _, err := plain.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("plain run %s: %v", job.Workload, err)
		}
		if got, ref := statsJSON(t, results[i]), statsJSON(t, want); got != ref {
			t.Fatalf("job %d (%s/%s) diverges from cache-free run:\n with: %s\n sans: %s",
				i, job.Workload, job.Config.VP.Scheme.String(), got, ref)
		}
	}

	// The runner surfaces the cache in its own stats block.
	rs := r.Stats()
	if rs.TraceCache == nil || rs.TraceCache.Emulations != s.Emulations {
		t.Errorf("runner stats do not carry the trace-cache block: %+v", rs.TraceCache)
	}
}
