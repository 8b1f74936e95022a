package config

import (
	"fmt"
	"math"
	"slices"

	"dlvp/internal/isa"
	"dlvp/internal/mem"
)

// Bounds of the fields Validate checks. Upper bounds keep one core from
// allocating without limit or waiting out an unbounded latency; lower
// bounds keep every structure able to make progress.
const (
	// maxROBSize keeps the ROB plus the front end's 64 fetched but not yet
	// renamed instructions inside the core's 1024-slot instruction window
	// (internal/uarch's windowCap; fetch stops 8 slots short of it).
	maxROBSize = 1024 - 64 - 8

	maxWidth   = 32      // instructions per cycle through a stage, lanes or value predictions
	maxQueue   = 1024    // PVT and PAQ entries
	maxLatency = 1000    // cycles of any latency, penalty or lifetime
	maxTable   = 1 << 16 // entries of one predictor, MDP or TLB table
	maxPeriod  = 1 << 32 // events between periodic predictor resets (0: never)
	maxTagBits = 16      // tags are stored in 16 bits
	maxHistory = 64      // bits of the 64-bit history registers
	maxTables  = 8       // tagged tables of one TAGE-style predictor
	maxSteps   = 16      // steps of a confidence vector
	maxWays    = 64      // a predicted way is an int8
	minBlock   = 16      // cache block bytes
	maxBlock   = 4096
	maxCache   = 16 << 20 // cache bytes
)

// limit is one bounded integer field of a Core: its name on the wire, its
// value, its legal range and whether it must be a power of two.
type limit struct {
	name      string
	v, lo, hi int64
	pow2      bool
}

// limits lists c's bounded integer fields. A cache or the TLB must hold
// at least one set, so the lower bound of its size follows its block size
// and ways; all three being powers of two, the sets then are too.
func (c Core) limits() []limit {
	m, vp := c.Mem, c.VP
	var ls []limit
	for i, cc := range []mem.CacheConfig{m.L1I, m.L1D, m.L2, m.L3} {
		name := "Mem." + [...]string{"L1I", "L1D", "L2", "L3"}[i] + "."
		ls = append(ls,
			limit{name + "BlockBytes", int64(cc.BlockBytes), minBlock, maxBlock, true},
			limit{name + "Ways", int64(cc.Ways), 1, maxWays, true},
			limit{name + "SizeBytes", int64(cc.SizeBytes), int64(cc.BlockBytes * cc.Ways), maxCache, true},
			limit{name + "Latency", int64(cc.Latency), 1, maxLatency, false})
	}
	period := func(p uint64) int64 { return int64(min(p, math.MaxInt64)) }
	return append(ls, []limit{
		{"Mem.TLB.Ways", int64(m.TLB.Ways), 1, maxWays, true},
		{"Mem.TLB.Entries", int64(m.TLB.Entries), int64(m.TLB.Ways), maxTable, true},
		{"Mem.TLB.PageBytes", int64(m.TLB.PageBytes), 1 << 10, 1 << 30, true},
		{"Mem.TLB.WalkLatency", int64(m.TLB.WalkLatency), 1, maxLatency, false},
		{"Mem.MemLatency", int64(m.MemLatency), 1, maxLatency, false},
		{"Mem.PrefetchDistance", int64(m.PrefetchDistance), 0, 16, false}, // 0: no prefetches

		{"FetchWidth", int64(c.FetchWidth), 1, maxWidth, false},
		{"FrontLatency", int64(c.FrontLatency), 1, maxLatency, false},
		{"IssueWidth", int64(c.IssueWidth), 1, maxWidth, false},
		{"LSLanes", int64(c.LSLanes), 1, maxWidth, false},
		{"ROBSize", int64(c.ROBSize), 1, maxROBSize, false},
		{"IQSize", int64(c.IQSize), 1, maxROBSize, false},
		{"LDQSize", int64(c.LDQSize), 1, maxROBSize, false},
		{"STQSize", int64(c.STQSize), 1, maxROBSize, false},
		// Rename needs a free register beyond the architectural file for
		// every destination of the widest instruction, an LDM.
		{"PhysRegs", int64(c.PhysRegs), isa.NumRegs + isa.MaxLDMRegs, 4096, false},
		{"CommitWidth", int64(c.CommitWidth), 1, maxWidth, false},
		{"PVTEntries", int64(c.PVTEntries), 1, maxQueue, false},
		{"PAQEntries", int64(c.PAQEntries), 1, maxQueue, false},
		{"PAQLifetime", int64(c.PAQLifetime), 1, maxLatency, false},
		{"ValueCheckPenalty", int64(c.ValueCheckPenalty), 1, maxLatency, false},

		{"TAGE.BimodalEntries", int64(c.TAGE.BimodalEntries), 1, maxTable, true},
		{"TAGE.TableEntries", int64(c.TAGE.TableEntries), 1, maxTable, true},
		{"TAGE.TagBits", int64(c.TAGE.TagBits), 1, maxTagBits, false},
		{"TAGE.UsefulResetPeriod", period(c.TAGE.UsefulResetPeriod), 0, maxPeriod, false},
		{"ITTAGE.BaseEntries", int64(c.ITTAGE.BaseEntries), 1, maxTable, true},
		{"ITTAGE.TableEntries", int64(c.ITTAGE.TableEntries), 1, maxTable, true},
		{"ITTAGE.TagBits", int64(c.ITTAGE.TagBits), 1, maxTagBits, false},
		{"MDP.Entries", int64(c.MDP.Entries), 1, maxTable, true},
		{"MDP.ClearPeriod", period(c.MDP.ClearPeriod), 0, maxPeriod, false},

		{"VP.PAP.Entries", int64(vp.PAP.Entries), 1, maxTable, true},
		{"VP.PAP.TagBits", int64(vp.PAP.TagBits), 1, maxTagBits, false},
		{"VP.PAP.HistBits", int64(vp.PAP.HistBits), 1, maxHistory, false},
		{"VP.PAP.AddrBits", int64(vp.PAP.AddrBits), 1, 64, false},
		{"VP.PAP.WayBits", int64(vp.PAP.WayBits), 0, 6, false}, // 0: a direct-mapped L1D
		{"VP.CAP.LoadBufferEntries", int64(vp.CAP.LoadBufferEntries), 1, maxTable, true},
		{"VP.CAP.LinkEntries", int64(vp.CAP.LinkEntries), 1, maxTable, true},
		{"VP.CAP.TagBits", int64(vp.CAP.TagBits), 1, maxTagBits, false},
		{"VP.CAP.HistBits", int64(vp.CAP.HistBits), 1, maxHistory, false},
		{"VP.CAP.Confidence", int64(vp.CAP.Confidence), 1, 64, false},
		{"VP.CAP.AddrBits", int64(vp.CAP.AddrBits), 8, 64, false}, // the link field is AddrBits-8 wide
		{"VP.VTAGE.TableEntries", int64(vp.VTAGE.TableEntries), 1, maxTable, true},
		{"VP.VTAGE.TagBits", int64(vp.VTAGE.TagBits), 1, maxTagBits, false},
		{"VP.DVTAGE.LVTEntries", int64(vp.DVTAGE.LVTEntries), 1, maxTable, true},
		{"VP.DVTAGE.TableEntries", int64(vp.DVTAGE.TableEntries), 1, maxTable, true},
		{"VP.DVTAGE.TagBits", int64(vp.DVTAGE.TagBits), 1, maxTagBits, false},
		{"VP.DVTAGE.DeltaBits", int64(vp.DVTAGE.DeltaBits), 1, 64, false},
		{"VP.Chooser.Entries", int64(vp.Chooser.Entries), 1, maxTable, true},
		{"VP.LSCDEntries", int64(vp.LSCDEntries), 0, 64, false}, // 0: no LSCD
		{"VP.MaxPredictionsPerCycle", int64(vp.MaxPredictionsPerCycle), 1, maxWidth, false},
	}...)
}

// Validate reports, naming it, the first field of c the simulator cannot
// run with. Every field that sizes, widens, indexes or paces a structure
// must be positive, except where 0 turns a feature off (VP.LSCDEntries),
// and within a constant bound; table and cache geometries are powers of
// two. Every history slice holds 1 to 8 tables. An empty VTAGE confidence
// vector selects the default; a given one is short and its steps are
// powers of two. Configs that arrive from outside pass here before they
// reach the core.
func (c Core) Validate() error {
	for _, l := range c.limits() {
		if l.v < l.lo || l.v > l.hi {
			return fmt.Errorf("config: %s = %d, want %d..%d", l.name, l.v, l.lo, l.hi)
		}
		if l.pow2 && l.v&(l.v-1) != 0 {
			return fmt.Errorf("config: %s = %d, want a power of two", l.name, l.v)
		}
	}
	for _, h := range []struct {
		name string
		bits []uint8
	}{
		{"TAGE.Histories", c.TAGE.Histories}, {"ITTAGE.Histories", c.ITTAGE.Histories},
		{"VP.VTAGE.Histories", c.VP.VTAGE.Histories}, {"VP.DVTAGE.Histories", c.VP.DVTAGE.Histories},
	} {
		if len(h.bits) == 0 || len(h.bits) > maxTables || slices.Max(h.bits) > maxHistory {
			return fmt.Errorf("config: %s = %v, want 1..%d tables of at most %d bits", h.name, h.bits, maxTables, maxHistory)
		}
	}
	cv := c.VP.VTAGE.ConfidenceVector
	if len(cv) > maxSteps || slices.ContainsFunc(cv, func(d uint32) bool { return d == 0 || d&(d-1) != 0 }) {
		return fmt.Errorf("config: VP.VTAGE.ConfidenceVector = %v, want at most %d power-of-two steps", cv, maxSteps)
	}
	return nil
}
