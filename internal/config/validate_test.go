package config_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand/v2"
	"strings"
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/uarch"
	"dlvp/internal/workloads"
)

func TestPresetsValidate(t *testing.T) {
	for _, name := range config.SchemeNames() {
		c, _ := config.ByScheme(name)
		if err := c.Validate(); err != nil {
			t.Errorf("%s preset: %v", name, err)
		}
	}
}

// Each edit leaves a config the simulator cannot run (or that outgrows a
// bound), and Validate's error must name the field.
func TestValidateNamesTheField(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(*config.Core)
	}{
		{"CommitWidth", func(c *config.Core) { c.CommitWidth = 0 }},
		{"ROBSize", func(c *config.Core) { c.ROBSize = 0 }},
		{"ROBSize", func(c *config.Core) { c.ROBSize = 1000 }}, // outgrows the window
		{"FetchWidth", func(c *config.Core) { c.FetchWidth = -1 }},
		{"PhysRegs", func(c *config.Core) { c.PhysRegs = 64 }},
		{"Mem.L1D.SizeBytes", func(c *config.Core) { c.Mem.L1D.SizeBytes = 0 }},
		{"Mem.L1D.SizeBytes", func(c *config.Core) { c.Mem.L1D.SizeBytes = 1 << 30 }},
		{"Mem.L2.Ways", func(c *config.Core) { c.Mem.L2.Ways = 3 }},
		{"Mem.L1I.SizeBytes", func(c *config.Core) { c.Mem.L1I.SizeBytes = 64 }}, // less than one set
		{"Mem.TLB.Entries", func(c *config.Core) { c.Mem.TLB.Entries = 4 }},      // less than one set
		{"Mem.TLB.PageBytes", func(c *config.Core) { c.Mem.TLB.PageBytes = 3000 }},
		{"Mem.MemLatency", func(c *config.Core) { c.Mem.MemLatency = 1 << 40 }},
		{"TAGE.TableEntries", func(c *config.Core) { c.TAGE.TableEntries = 1000 }},
		{"TAGE.UsefulResetPeriod", func(c *config.Core) { c.TAGE.UsefulResetPeriod = math.MaxUint64 }},
		{"TAGE.Histories", func(c *config.Core) { c.TAGE.Histories = make([]uint8, 9) }},
		{"ITTAGE.Histories", func(c *config.Core) { c.ITTAGE.Histories[0] = 65 }},
		{"VP.VTAGE.Histories", func(c *config.Core) { c.VP.VTAGE.Histories = nil }},
		{"VP.PAP.HistBits", func(c *config.Core) { c.VP.PAP.HistBits = 0 }},
		{"VP.LSCDEntries", func(c *config.Core) { c.VP.LSCDEntries = -1 }},
		{"VP.VTAGE.ConfidenceVector", func(c *config.Core) { c.VP.VTAGE.ConfidenceVector = []uint32{1, 3} }},
	} {
		c := config.DLVP()
		tc.edit(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s edit: Validate() = %v, want an error naming %s", tc.field, err, tc.field)
		}
	}
}

// A config with every bounded field at its lower bound, and one with
// every field at its upper bound, must validate and run perlbmk under each
// scheme.
func TestBoundConfigsSimulate(t *testing.T) {
	for _, hi := range []bool{false, true} {
		for _, name := range config.SchemeNames() {
			preset, _ := config.ByScheme(name)
			c := config.AtBounds(preset, hi)
			if err := c.Validate(); err != nil {
				t.Fatalf("%s at its bounds (upper %v): %v", name, hi, err)
			}
			simulateKernels(t, fmt.Sprintf("%s at its bounds (upper %v)", name, hi), c, "perlbmk")
		}
	}
}

// TestMixedConfigsSimulate draws configs in which every bounded field
// independently keeps its preset value or takes its lower bound, its upper
// bound or a log-uniform point of its range, cycling through the schemes'
// presets. Every config that validates must run three kernels, and every
// scheme must have one that does. Config i's draws depend only on i and
// the field names, so a failure reproduces alone.
func TestMixedConfigsSimulate(t *testing.T) {
	const configs = 48
	schemes := config.SchemeNames()
	ran, validated := map[string]int{}, 0
	for i := 0; i < configs; i++ {
		scheme := schemes[i%len(schemes)]
		preset, _ := config.ByScheme(scheme)
		c := config.Vary(preset, func(b config.Bound) int64 { return drawBound(uint64(i), b) })
		if c.Validate() != nil {
			continue
		}
		ran[scheme]++
		validated++
		simulateKernels(t, fmt.Sprintf("config %d (%s)", i, scheme), c, "perlbmk", "gap", "vortex")
	}
	for _, s := range schemes {
		if ran[s] == 0 {
			t.Errorf("no %s config of %d drawn validates", s, configs)
		}
	}
	t.Logf("%d of %d configs validated and ran: %v", validated, configs, ran)
}

// simulateKernels runs c on each kernel for 2 000 instructions and fails
// the test, naming what and printing c when it panics, unless the core
// commits them all without a panic and within a cycle cap that a hung core
// would hit.
func simulateKernels(t *testing.T, what string, c config.Core, kernels ...string) {
	t.Helper()
	const instrs = 2_000
	for _, name := range kernels {
		w, _ := workloads.ByName(name)
		func() {
			defer func() {
				if p := recover(); p != nil {
					cfg, _ := json.Marshal(c)
					t.Errorf("%s on %s panicked: %v\n%s", what, name, p, cfg)
				}
			}()
			if st := uarch.New(c, w.Build(), w.Reader(instrs)).Run(50_000_000); st.Instructions != instrs {
				t.Errorf("%s on %s committed %d of %d instructions in %d cycles",
					what, name, st.Instructions, instrs, st.Cycles)
			}
		}()
	}
}

// drawBound picks b's value in config i: its preset value, its lower bound,
// its upper bound or a log-uniform point of its range (from 1 when the
// range starts at 0), rounded down to a power of two where b needs one.
func drawBound(i uint64, b config.Bound) int64 {
	h := fnv.New64a()
	h.Write([]byte(b.Name))
	r := rand.New(rand.NewPCG(i, h.Sum64()))
	switch r.IntN(4) {
	case 0:
		return b.V
	case 1:
		return b.Lo
	case 2:
		return b.Hi
	}
	lo := max(b.Lo, 1)
	v := int64(math.Exp(math.Log(float64(lo)) + r.Float64()*(math.Log(float64(b.Hi))-math.Log(float64(lo)))))
	v = min(max(v, lo), b.Hi)
	if b.Pow2 {
		v = 1 << (bits.Len64(uint64(v)) - 1)
	}
	return v
}
