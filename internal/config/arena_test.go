package config_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dlvp/internal/checkpoint"
	"dlvp/internal/config"
	"dlvp/internal/emu"
	"dlvp/internal/trace"
	"dlvp/internal/uarch"
	"dlvp/internal/workloads"
)

// TestArenaReuseMatchesFreshArena holds a recycled uarch.Arena to a fresh
// one. One arena runs every scheme's jobs under four memory geometries in
// turn: Table 4, every field at its lower bound, every field at its upper
// bound, and Table 4 again, so NewAtArena both renews the arena's cache
// hierarchy (same geometry) and replaces it (a new one). Each geometry's
// jobs are a full run and a mid-stream interval restored from a
// checkpoint under SetSampleWindow. Every job must produce, bit for bit,
// the RunStats, energy, measured counters, site profile and final cache
// hierarchy (lines, LRU stamps and every counter) of the same job on a
// fresh arena. It lives here because config.AtBounds is test-only.
func TestArenaReuseMatchesFreshArena(t *testing.T) {
	const (
		instrs   = 10_000
		restore  = 20_000 // the interval's checkpoint offset
		warmup   = 2_000
		measured = 4_000
	)
	w, _ := workloads.ByName("mcf")
	prog := w.Build()
	stream := trace.Capture(w.Reader(instrs), 0)
	store := checkpoint.NewStore(0)

	// run builds one core for the job on a and returns everything it
	// produced, encoded, plus its hierarchy.
	run := func(cfg config.Core, midStream bool, a *uarch.Arena) ([]byte, *uarch.Core) {
		var core *uarch.Core
		if midStream {
			snap, _, err := store.StateAt(w.Name, prog, restore)
			if err != nil {
				t.Fatal(err)
			}
			cpu := emu.NewFromSnapshot(prog, snap)
			cpu.MaxInstrs = restore + warmup + measured + 4_096
			core = uarch.NewAtArena(cfg, prog, cpu, snap.Mem, a)
			core.SetSampleWindow(warmup, measured)
		} else {
			core = uarch.NewAtArena(cfg, prog, stream.Replay(), nil, a)
		}
		core.EnableSiteProfile(0)
		st := core.Run(0)
		meas, complete := core.MeasuredCounters()
		out, err := json.Marshal(struct {
			Stats    any
			Measured any
			Complete bool
			Energy   float64
			Sites    any
		}{st, meas, complete, core.Energy(meas), core.SiteProfile()})
		if err != nil {
			t.Fatal(err)
		}
		return out, core
	}

	shared := uarch.NewArena()
	for _, geom := range []struct {
		name string
		mem  func(config.Core) config.Core
	}{
		{"table4", func(c config.Core) config.Core { return c }},
		{"lower", func(c config.Core) config.Core { return config.AtBounds(c, false) }},
		{"upper", func(c config.Core) config.Core { return config.AtBounds(c, true) }},
		{"table4-again", func(c config.Core) config.Core { return c }},
	} {
		for _, scheme := range config.SchemeNames() {
			for _, midStream := range []bool{false, true} {
				cfg, _ := config.ByScheme(scheme)
				cfg.Mem = geom.mem(cfg).Mem
				want, fresh := run(cfg, midStream, uarch.NewArena())
				got, reused := run(cfg, midStream, shared)
				job := geom.name + "/" + scheme
				if midStream {
					job += "/mid-stream"
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s on a recycled arena:\n got %s\nwant %s", job, got, want)
				}
				if !reflect.DeepEqual(reused.Hierarchy(), fresh.Hierarchy()) {
					t.Errorf("%s on a recycled arena ends with a different cache hierarchy than on a fresh one", job)
				}
			}
		}
	}
}
