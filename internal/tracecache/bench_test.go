package tracecache_test

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/runner"
	"dlvp/internal/trace"
	"dlvp/internal/tracecache"
	"dlvp/internal/workloads"
)

// BenchmarkReplayVsEmulate is the PR's perf gate, run once in CI bench-sanity
// (-benchtime 1x). It fails the run (b.Errorf) unless
//
//  1. replaying a captured stream delivers records faster than live
//     emulation, and
//  2. a 3-config mini-matrix through the runner is faster with the trace
//     cache (capture + replays) than without it, with bit-identical
//     RunStats.
//
// Both gates compare best-of-3 timings and retry a few times before
// declaring a regression, so scheduler noise cannot flake CI; a genuine
// regression fails every attempt.
func BenchmarkReplayVsEmulate(b *testing.B) {
	const (
		instrs   = 20_000
		minOf    = 3
		attempts = 6
	)
	w, ok := workloads.ByName("perlbmk")
	if !ok {
		b.Fatal("perlbmk missing from registry")
	}

	for i := 0; i < b.N; i++ {
		// Gate 1: raw trace delivery. Warm a capture, then race a pure
		// replay against a fresh emulation of the same stream.
		tc := tracecache.New(64 << 20)
		warm, release, _ := tc.Reader(w.Name, instrs, func() trace.Reader { return w.Reader(instrs) })
		drain(warm)
		release()

		deliverGate := false
		var emuBest, replayBest time.Duration
		for a := 0; a < attempts && !deliverGate; a++ {
			emuBest = bestOf(minOf, func() { drain(w.Reader(instrs)) })
			replayBest = bestOf(minOf, func() {
				r, rel, _ := tc.Reader(w.Name, instrs, func() trace.Reader { return w.Reader(instrs) })
				drain(r)
				rel()
			})
			deliverGate = replayBest < emuBest
		}
		if !deliverGate {
			b.Errorf("replay delivery no faster than emulation: %v vs %v", replayBest, emuBest)
		} else {
			b.ReportMetric(float64(emuBest)/float64(replayBest), "delivery-speedup")
		}

		// Gate 2: end-to-end mini-matrix. The cached matrix pays one capture
		// per workload and replays the rest; results must not change.
		matrixGate := false
		var plainBest, cachedBest time.Duration
		var plainStats, cachedStats string
		for a := 0; a < attempts && !matrixGate; a++ {
			plainBest = bestOfMatrix(b, minOf, nil, &plainStats)
			cachedBest = bestOfMatrix(b, minOf, func() *tracecache.Cache {
				return tracecache.New(256 << 20)
			}, &cachedStats)
			matrixGate = cachedBest < plainBest
		}
		if plainStats != cachedStats {
			b.Fatalf("matrix results diverge with the trace cache:\n plain: %s\ncached: %s", plainStats, cachedStats)
		}
		if !matrixGate {
			b.Errorf("cached matrix no faster than emulate-per-job: %v vs %v", cachedBest, plainBest)
		} else {
			b.ReportMetric(float64(plainBest)/float64(cachedBest), "matrix-speedup")
		}
	}
}

func drain(r trace.Reader) {
	var rec trace.Rec
	for r.Next(&rec) {
	}
}

func bestOf(n int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// bestOfMatrix times the 3-config mini-matrix n times (serial execution,
// result cache off so every job simulates) and records the JSON of the last
// run's results for the bit-identical check. newCache == nil runs without a
// trace cache; otherwise each timing gets a fresh cache so the capture cost
// is always included.
func bestOfMatrix(b *testing.B, n int, newCache func() *tracecache.Cache, statsOut *string) time.Duration {
	b.Helper()
	const instrs = 20_000
	configs := []config.Core{config.Baseline(), config.DLVP(), config.VTAGE()}
	names := workloads.Names()[:4]
	var jobs []runner.Job
	for _, cfg := range configs {
		for _, name := range names {
			jobs = append(jobs, runner.Job{Workload: name, Config: cfg, Instrs: instrs})
		}
	}

	best := time.Duration(1<<63 - 1)
	var results []metrics.RunStats
	for i := 0; i < n; i++ {
		opts := runner.Options{Workers: 1, CacheEntries: -1}
		if newCache != nil {
			opts.TraceCache = newCache()
		}
		eng := runner.New(opts)
		start := time.Now()
		out, err := eng.RunAll(context.Background(), jobs, runner.Matrix{})
		if err != nil {
			b.Fatalf("matrix: %v", err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		results = out
	}
	enc, err := json.Marshal(results)
	if err != nil {
		b.Fatalf("marshal results: %v", err)
	}
	*statsOut = string(enc)
	return best
}
