package dlvp

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"dlvp/internal/trace"
	"dlvp/internal/uarch"
)

// benchRecord is the committed core-throughput trajectory (BENCH_9.json).
// measured_instrs_per_sec is the best-of-N rate observed on the machine
// that produced the file (informational — see the README perf table);
// reference_instrs_per_sec is the gate reference: a conservative floor of
// the measurement band, chosen so cross-machine and load variance (±30%
// observed) cannot trip the gate but an algorithmic regression — e.g.
// reintroducing an O(window) walk on the issue path, which costs 2-3× —
// still lands far below it.
type benchRecord struct {
	Schema   string `json:"schema"`
	Note     string `json:"note"`
	Workload string `json:"workload"`
	Instrs   uint64 `json:"instrs"`
	Entries  map[string]struct {
		Measured  float64 `json:"measured_instrs_per_sec"`
		Reference float64 `json:"reference_instrs_per_sec"`
	} `json:"entries"`
}

// measureThroughput replays the pre-captured trace `runs` times through a
// fresh core on a shared arena and returns committed instructions per
// wall-clock second — the same measure BenchmarkCoreThroughput reports.
func measureThroughput(cfg CoreConfig, name string, instrs uint64, runs int) float64 {
	w, ok := WorkloadByName(name)
	if !ok {
		panic("workload not registered: " + name)
	}
	prog := w.Build()
	stream := trace.Capture(w.Reader(instrs), 0)
	arena := uarch.NewArena()
	var committed uint64
	start := time.Now()
	for i := 0; i < runs; i++ {
		core := uarch.NewAtArena(cfg, prog, stream.Replay(), nil, arena)
		committed += core.Run(0).Instructions
	}
	return float64(committed) / time.Since(start).Seconds()
}

// TestCoreThroughputGate is the CI regression gate for the rewritten core:
// with DLVP_BENCH_GATE=1 it measures simulated-instructions/sec (best of
// three trials, to ride out transient load) and fails when any configuration
// lands more than 10% below its committed reference in BENCH_9.json.
func TestCoreThroughputGate(t *testing.T) {
	if os.Getenv("DLVP_BENCH_GATE") != "1" {
		t.Skip("set DLVP_BENCH_GATE=1 to run the throughput gate")
	}
	raw, err := os.ReadFile("BENCH_9.json")
	if err != nil {
		t.Fatalf("reading committed trajectory: %v", err)
	}
	var ref benchRecord
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatalf("parsing BENCH_9.json: %v", err)
	}
	cfgs := map[string]CoreConfig{"baseline": Baseline(), "dlvp": DLVP()}
	for name, entry := range ref.Entries {
		cfg, ok := cfgs[name]
		if !ok {
			t.Errorf("BENCH_9.json entry %q has no matching configuration", name)
			continue
		}
		const trials, runs = 3, 8
		var best float64
		for i := 0; i < trials; i++ {
			if r := measureThroughput(cfg, ref.Workload, ref.Instrs, runs); r > best {
				best = r
			}
		}
		floor := entry.Reference * 0.9
		t.Logf("%s: %.0f instrs/sec (reference %.0f, gate floor %.0f)", name, best, entry.Reference, floor)
		if best < floor {
			t.Errorf("%s throughput %.0f instrs/sec regressed >10%% below the committed reference %.0f",
				name, best, entry.Reference)
		}
	}
}

// TestWarmArenaAllocationGate is an exact gate on per-run set-up: after
// one warm-up run on an arena, another 100k-instruction perlbmk run must
// allocate less than 256 KiB, under baseline and under DLVP. It counts
// bytes instead of timing, so it holds on any host: a core that rebuilds
// its cache hierarchy (1.7 MB of lines) or any other bulk structure per
// run fails it. The smallest of three runs counts, so an allocation by
// another goroutine cannot fail it.
func TestWarmArenaAllocationGate(t *testing.T) {
	const instrs, limit = 100_000, 256 << 10
	w, ok := WorkloadByName("perlbmk")
	if !ok {
		t.Fatal("perlbmk not registered")
	}
	prog := w.Build()
	stream := trace.Capture(w.Reader(instrs), 0)
	for _, tc := range []struct {
		name string
		cfg  CoreConfig
	}{
		{"baseline", Baseline()},
		{"dlvp", DLVP()},
	} {
		arena := uarch.NewArena()
		run := func() { uarch.NewAtArena(tc.cfg, prog, stream.Replay(), nil, arena).Run(0) }
		run() // warm-up: the arena builds its bulk state
		bytes, allocs := ^uint64(0), ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
		}
		t.Logf("%s: %d bytes in %d allocations per warm run", tc.name, bytes, allocs)
		if bytes >= limit {
			t.Errorf("%s: a run on a warm arena allocates %d bytes (%d allocations), want < %d", tc.name, bytes, allocs, limit)
		}
	}
}
