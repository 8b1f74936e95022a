package config_test

import (
	"math"
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
// every field at its upper bound, must validate and run the core: 2 000
// perlbmk instructions under each scheme, without a panic and within a
// cycle cap that a hung core would hit.
func TestBoundConfigsSimulate(t *testing.T) {
	const instrs = 2_000
	w, _ := workloads.ByName("perlbmk")
	for _, hi := range []bool{false, true} {
		for _, name := range config.SchemeNames() {
			preset, _ := config.ByScheme(name)
			c := config.AtBounds(preset, hi)
			if err := c.Validate(); err != nil {
				t.Fatalf("%s at its bounds (upper %v): %v", name, hi, err)
			}
			st := uarch.New(c, w.Build(), w.Reader(instrs)).Run(50_000_000)
			if st.Instructions != instrs {
				t.Errorf("%s at its bounds (upper %v) committed %d of %d instructions in %d cycles",
					name, hi, st.Instructions, instrs, st.Cycles)
			}
		}
	}
}
