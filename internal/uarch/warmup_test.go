package uarch

import (
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/workloads"
)

func sampleCore(t *testing.T, instrs, warmup, measured uint64) (*Core, metrics.Counters, bool) {
	t.Helper()
	w, ok := workloads.ByName("perlbmk")
	if !ok {
		t.Fatal("perlbmk missing from registry")
	}
	c := New(config.DLVP(), w.Build(), w.Reader(instrs))
	c.SetSampleWindow(warmup, measured)
	c.Run(0)
	meas, complete := c.MeasuredCounters()
	return c, meas, complete
}

// With no warm-up and an unbounded window, MeasuredCounters is the
// whole run.
func TestMeasuredCountersWithoutWarmup(t *testing.T) {
	c, meas, complete := sampleCore(t, 10_000, 0, 0)
	if !complete {
		t.Fatal("zero warm-up must report complete")
	}
	s := c.Stats()
	if meas[metrics.Instructions] != s.Instructions || meas[metrics.Cycles] != s.Cycles || meas[metrics.Loads] != s.Loads {
		t.Errorf("measured (%d instrs, %d cycles, %d loads) != stats (%d, %d, %d)",
			meas[metrics.Instructions], meas[metrics.Cycles], meas[metrics.Loads], s.Instructions, s.Cycles, s.Loads)
	}
}

// A warm-up region is excluded from the measured delta exactly: its
// committed instructions disappear from the denominator, and the split
// is sum-preserving against the cumulative totals.
func TestWarmupExcludedFromMeasurement(t *testing.T) {
	const instrs, warmup = 10_000, 4_000
	c, meas, complete := sampleCore(t, instrs, warmup, 0)
	if !complete {
		t.Fatal("run ended inside the warm-up region")
	}
	s := c.Stats()
	if s.Instructions != instrs {
		t.Fatalf("committed %d, want %d", s.Instructions, instrs)
	}
	if meas[metrics.Instructions] != instrs-warmup {
		t.Errorf("measured instructions = %d, want %d", meas[metrics.Instructions], instrs-warmup)
	}
	if meas[metrics.Cycles] == 0 || meas[metrics.Cycles] >= s.Cycles {
		t.Errorf("measured cycles = %d, want in (0, %d)", meas[metrics.Cycles], s.Cycles)
	}
	if meas[metrics.Loads] >= s.Loads {
		t.Errorf("measured loads = %d, want < total %d", meas[metrics.Loads], s.Loads)
	}
	if meas[metrics.VPEligible] > meas[metrics.Instructions] {
		t.Errorf("eligible %d exceeds measured instructions %d", meas[metrics.VPEligible], meas[metrics.Instructions])
	}
}

// A bounded window closes at its Nth commit and stops the core: the
// measured region has exactly the requested length, and the
// end-of-stream pipeline drain is excluded (the core never reaches it).
func TestBoundedWindowStopsAtClosingCommit(t *testing.T) {
	const instrs, warmup, measured = 20_000, 2_000, 3_000
	c, meas, complete := sampleCore(t, instrs, warmup, measured)
	if !complete {
		t.Fatal("window did not complete")
	}
	if meas[metrics.Instructions] != measured {
		t.Errorf("measured instructions = %d, want exactly %d", meas[metrics.Instructions], measured)
	}
	// The core stopped at the closing commit, far short of the stream:
	// at CommitWidth per cycle at most a few extra commits land in the
	// closing cycle, never thousands.
	s := c.Stats()
	if s.Instructions >= instrs {
		t.Errorf("core committed the whole %d-instruction stream; the bounded window did not stop it", instrs)
	}
	if s.Instructions < warmup+measured {
		t.Errorf("core committed %d, want >= warmup+measured = %d", s.Instructions, warmup+measured)
	}
	if slack := s.Instructions - (warmup + measured); slack > uint64(c.cfg.CommitWidth) {
		t.Errorf("%d commits past the window close, want <= the commit width %d", slack, c.cfg.CommitWidth)
	}
}

// A window that ends mid-measurement (stream shorter than
// warmup+measured) must be reported incomplete, not as a short sample.
func TestIncompleteWindowReported(t *testing.T) {
	if _, meas, complete := sampleCore(t, 1_000, 5_000, 0); complete || meas != (metrics.Counters{}) {
		t.Errorf("run shorter than warm-up: complete=%v meas=%+v, want false/zero", complete, meas)
	}
	if _, meas, complete := sampleCore(t, 3_000, 1_000, 5_000); complete || meas != (metrics.Counters{}) {
		t.Errorf("stream shorter than the measured region: complete=%v meas=%+v, want false/zero", complete, meas)
	}
}

// Sample windows compose with the flight recorder: both consume the
// commit stream without disturbing each other.
func TestWarmupComposesWithTimeline(t *testing.T) {
	w, ok := workloads.ByName("perlbmk")
	if !ok {
		t.Fatal("perlbmk missing from registry")
	}
	const instrs, warmup = 8_000, 2_000
	c := New(config.DLVP(), w.Build(), w.Reader(instrs))
	c.EnableTimeline(1_000, 16)
	c.SetSampleWindow(warmup, 0)
	s := c.Run(0)
	meas, complete := c.MeasuredCounters()
	if !complete {
		t.Fatal("window incomplete")
	}
	if meas[metrics.Instructions] != instrs-warmup {
		t.Errorf("measured instructions = %d, want %d", meas[metrics.Instructions], instrs-warmup)
	}
	tl := c.Timeline()
	if tl == nil {
		t.Fatal("timeline lost")
	}
	if got := tl.Totals()[metrics.Instructions]; got != s.Instructions {
		t.Errorf("timeline totals %d != stats %d", got, s.Instructions)
	}
}
