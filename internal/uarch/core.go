// Package uarch is the cycle-level out-of-order core model. It consumes the
// functional emulator's dynamic instruction stream and models the Table 4
// baseline pipeline — a 4-wide in-order front end feeding an 8-wide
// out-of-order engine (2 load-store lanes) through a 13-cycle
// fetch-to-execute pipe — plus the paper's value-prediction machinery:
//
//   - the Value Prediction Engine (PVT + predicted bits, Section 3.2.1),
//   - DLVP: PAP (or CAP) address prediction at fetch, the Predicted Address
//     Queue, opportunistic L1D probes on load-store lane bubbles, probe-miss
//     prefetching, the LSCD in-flight-store filter, and way prediction
//     (Section 3.2.2),
//   - conventional VTAGE value prediction, and the DLVP+VTAGE tournament.
//
// Being trace-driven, the model executes no wrong-path instructions;
// mispredictions are modelled as fetch redirect penalties, which is the
// standard trace-driven treatment. Probe staleness is modelled exactly: the
// core maintains its own committed-memory image, updated at store commit,
// and a DLVP probe reads that image — so a store committing between probe
// and load execution (or still in flight) yields a stale probed value and a
// genuine value misprediction, the paper's Challenge #1.
//
// The implementation is data-oriented: the instruction window is a
// struct-of-arrays block (window.go), the scheduler picks ready
// instructions from a bitmap with TrailingZeros64, one load/store queue
// index answers the memory-order questions without walking the window
// (lsq.go), and all bulk state lives in an Arena a caller can recycle
// across runs.
package uarch

import (
	"fmt"
	"sync/atomic"

	"dlvp/internal/branch"
	"dlvp/internal/config"
	"dlvp/internal/emu"
	"dlvp/internal/mdp"
	"dlvp/internal/mem"
	"dlvp/internal/metrics"
	"dlvp/internal/predictor"
	"dlvp/internal/predictor/cap"
	"dlvp/internal/predictor/dvtage"
	"dlvp/internal/predictor/pap"
	"dlvp/internal/predictor/tournament"
	"dlvp/internal/predictor/vtage"
	"dlvp/internal/program"
	"dlvp/internal/siteprof"
	tline "dlvp/internal/timeline"
	"dlvp/internal/trace"
)

type flushKind uint8

const (
	flushBranch flushKind = iota
	flushValue
	flushOrder
)

type flushReq struct {
	seq       uint64 // squash everything with seq > this (flushOrder: >=)
	resume    uint64 // cycle fetch restarts
	kind      flushKind
	refetchAt uint64 // first seq to refetch
}

// Core is one simulated core instance bound to a program and its functional
// stream.
type Core struct {
	cfg    config.Core
	prog   *program.Program
	reader trace.Reader
	// ovf is the reader's overflow table: the destinations of wide records
	// past the inline ones (nil when the reader supplies none).
	ovf *trace.Overflow

	// Committed architectural memory image (probe staleness model).
	cmem *emu.Memory

	hier   *mem.Hierarchy
	tage   *branch.TAGE
	ittage *branch.ITTAGE
	ras    branch.RAS
	// rasBase is the RAS state at the commit head (squash fallback).
	rasBase branch.RASState
	ghist   predictor.GlobalHistory
	mdp     *mdp.Predictor

	papPred *pap.Predictor
	capPred *cap.Predictor
	vtPred  *vtage.Predictor
	dvPred  *dvtage.Predictor
	chooser *tournament.Chooser
	lscd    *pap.LSCD

	// a holds the SoA window, the trace ring, and every other bulk
	// per-run allocation (see window.go).
	a *Arena

	// Trace ring cursor: records [bufHi-bufCap, bufHi) are resident.
	bufHi    uint64 // next seq to pull from the reader
	traceEOF bool

	headSeq   uint64 // oldest in-flight seq (== next to commit)
	fetchSeq  uint64 // next seq to fetch
	renameSeq uint64 // next seq to rename
	haltSeen  bool
	haltSeq   uint64 // seq of the fetched HALT (valid when haltSeen)

	now uint64

	// History state at the commit head (flush fallback when every younger
	// instruction is squashed).
	committedGhist  uint64
	committedLphist uint64

	// Occupancy. The ROB holds [headSeq, renameSeq) and the decode queue
	// [renameSeq, fetchSeq): rename runs in order, commit pops the head
	// and a squash truncates a suffix, so neither range has a hole.
	iqCount  int // bits set in a.iqBits (renamed & unissued)
	ldqCount int
	stqCount int
	freeRegs int
	pvtCount int

	lastWriter [64]uint64 // seq+1 of last in-flight writer per arch reg

	// PAQ ring cursors over a.paqBuf.
	paqHead uint32
	paqTail uint32

	fetchStallUntil uint64
	pendingFlush    flushReq
	flushPending    bool

	replayEpoch uint64 // selective-replay taint-mark epoch

	// eventWake re-activates every sleeping scheduler candidate next cycle;
	// set by a selective replay and by a flush, which change the window
	// under the sleepers' wake conditions.
	eventWake bool

	memIssuedThisCycle     int
	loadPortsFreeThisCycle int

	// ctr is the core's cumulative counter vector: everything the core
	// counts itself, incremented in place. counters() completes it with
	// the cycle clock and the predictor, LSCD and cache-hierarchy counts.
	ctr metrics.Counters
	// stats is the run summary finalizeStats converts from the vector;
	// until then it carries only the workload and scheme names.
	stats metrics.RunStats

	// nextBoundary is the committed-instruction count at which the next
	// sample-window or flight-recorder boundary falls (0: none armed —
	// the commit path compares after an increment, so 0 never matches).
	nextBoundary uint64

	// Stage-trace capture (EnableStageTrace).
	stageTraces []StageTrace
	traceStart  uint64
	traceWant   int

	// Flight recorder (EnableTimeline). tl is nil when sampling is off;
	// tlNext is the instruction count of its next interval boundary;
	// tlPAQPeak tracks the high-water PAQ occupancy since the last
	// boundary.
	tl        *tline.Recorder
	tlNext    uint64
	tlPAQPeak int
	timeline  *tline.Timeline

	// Sample window (SetSampleWindow). wmEnd is the instruction count
	// closing the warm-up; wmSnap holds the cumulative counters there so
	// MeasuredCounters can subtract the warm-up out of the totals. A
	// bounded measured region closes at mdEnd (0: unbounded), snapshots
	// mdSnap and raises stopReq so Run ends without simulating (or
	// measuring) the end-of-stream pipeline drain.
	wmEnd   uint64
	mdEnd   uint64
	wmSnap  metrics.Counters
	mdSnap  metrics.Counters
	stopReq bool

	// Per-load-site attribution (EnableSiteProfile). sp is nil when
	// profiling is off; the commit path then pays one nil check per
	// eligible instruction.
	sp          *siteprof.Collector
	siteProfile *siteprof.Profile

	// stopped is set by Stop, from any goroutine; Run checks it every
	// stopCheckCycles cycles.
	stopped atomic.Bool
}

// stopCheckCycles is how often Run looks at the stop flag: a power of two,
// so the check is one mask and compare per cycle.
const stopCheckCycles = 4096

type paqEntry struct {
	seq       uint64
	addr      uint64
	way       int8
	allocated uint64
}

// New builds a core in configuration cfg for program p, streaming records
// from reader. reader must be a fresh stream positioned at the program
// entry (typically an *emu.CPU).
func New(cfg config.Core, p *program.Program, reader trace.Reader) *Core {
	return NewAtArena(cfg, p, reader, nil, nil)
}

// NewAtArena builds a core whose committed-memory image starts from cmem
// instead of the program image — the mid-stream form used by sampled
// simulation, where reader is a checkpoint-restored emulator (its stream
// positions start at 0 like any other) and cmem is the architectural
// memory at the restore offset.
// cmem is cloned, never mutated; nil selects the program image. The
// probe-staleness model depends on this: a DLVP probe reads the committed
// image, so an interval starting mid-stream must see the memory the
// committed stream has produced so far, not the initial data segments.
//
// Passing an arena recycled from a finished run (never one still in use —
// arenas are not concurrency-safe) reuses its memory, making back-to-back
// simulations allocation-free on the bulk state. That includes the cache
// hierarchy when cfg.Mem equals the previous core's: it is renewed to
// NewHierarchy's cold state on the same line storage, and otherwise
// replaced. The previous core must not be used afterwards. A nil a
// allocates a fresh arena.
func NewAtArena(cfg config.Core, p *program.Program, reader trace.Reader, cmem *emu.Memory, a *Arena) *Core {
	var mimg *emu.Memory
	if cmem != nil {
		mimg = cmem.Clone()
	} else {
		mimg = emu.NewMemoryFromProgram(p)
	}
	if a == nil {
		a = NewArena()
	} else {
		a.reset()
	}
	if a.hier != nil && a.hier.Config() == cfg.Mem {
		a.hier = a.hier.Renew()
	} else {
		a.hier = mem.NewHierarchy(cfg.Mem)
	}
	c := &Core{
		cfg:    cfg,
		prog:   p,
		reader: reader,
		ovf:    trace.OverflowOf(reader),
		cmem:   mimg,
		a:      a,
		hier:   a.hier,
		tage:   branch.NewTAGE(cfg.TAGE),
		ittage: branch.NewITTAGE(cfg.ITTAGE),
		mdp:    mdp.New(cfg.MDP),
	}
	paqCap := cfg.PAQEntries
	if paqCap < 1 {
		paqCap = 1
	}
	if len(a.paqBuf) != paqCap { // the ring always keeps len == capacity
		a.paqBuf = make([]paqEntry, paqCap)
	}
	c.freeRegs = cfg.PhysRegs - 64
	switch cfg.VP.Scheme {
	case config.VPDLVP:
		c.papPred = pap.New(cfg.VP.PAP)
	case config.VPCAP:
		c.capPred = cap.New(cfg.VP.CAP)
	case config.VPVTAGE:
		c.vtPred = vtage.New(cfg.VP.VTAGE)
	case config.VPTournament:
		c.papPred = pap.New(cfg.VP.PAP)
		c.vtPred = vtage.New(cfg.VP.VTAGE)
		c.chooser = tournament.New(cfg.VP.Chooser)
	case config.VPDVTAGE:
		c.dvPred = dvtage.New(cfg.VP.DVTAGE)
	}
	if c.usesAddressPrediction() && cfg.VP.LSCDEntries > 0 {
		c.lscd = pap.NewLSCD(cfg.VP.LSCDEntries)
	}
	c.stats.Scheme = cfg.VP.Scheme.String()
	c.stats.Workload = p.Name
	return c
}

func (c *Core) usesAddressPrediction() bool {
	s := c.cfg.VP.Scheme
	return s == config.VPDLVP || s == config.VPCAP || s == config.VPTournament
}

// rec returns the trace record for an in-flight (or just-fetched) seq; the
// ring slot is valid for any seq in [bufHi-bufCap, bufHi).
func (c *Core) rec(seq uint64) *trace.Rec { return &c.a.buf[seq&bufMask] }

// cold returns the cold column block for seq.
func (c *Core) cold(seq uint64) *coldState { return &c.a.w.cold[seq&windowMask] }

// live reports whether seq refers to an in-flight instruction.
func (c *Core) live(seq uint64) bool {
	if seq < c.headSeq || seq >= c.fetchSeq {
		return false
	}
	return c.a.w.flags[seq&windowMask]&fValid != 0
}

// Run simulates until the stream is exhausted and the pipeline drains, or
// maxCycles elapses (0 = unlimited), or Stop is called, and returns the
// run statistics. A stopped run's statistics cover only the cycles it
// simulated.
func (c *Core) Run(maxCycles uint64) metrics.RunStats {
	for {
		if maxCycles > 0 && c.now >= maxCycles {
			break
		}
		if c.now%stopCheckCycles == 0 && c.stopped.Load() {
			break
		}
		c.commitStage()
		if c.stopReq {
			// A bounded sample window closed at a commit this cycle;
			// everything past it (including the drain) is out of scope.
			break
		}
		c.executeStage()
		c.issueStage()
		c.probeStage()
		c.renameStage()
		c.fetchStage()
		c.applyFlush()
		if c.done() {
			break
		}
		c.now++
	}
	c.finalizeStats()
	return c.stats
}

// Stop makes Run return within stopCheckCycles simulated cycles. It is
// safe to call from any goroutine, before or during Run.
func (c *Core) Stop() { c.stopped.Store(true) }

func (c *Core) done() bool {
	if c.headSeq != c.fetchSeq {
		return false
	}
	if c.haltSeen {
		return true
	}
	// End of stream: nothing in flight AND nothing left to (re)fetch.
	return c.traceEOF && c.fetchSeq >= c.bufHi
}

// fill ensures the trace ring covers seq; returns false at end of stream.
// The reader writes records directly into ring slots (every Reader fully
// overwrites the record), so the steady state moves each record exactly
// once and allocates nothing.
func (c *Core) fill(seq uint64) bool {
	if seq+bufCap < c.bufHi {
		panic(fmt.Sprintf("uarch: trace rewound below ring (seq %d, next %d)", seq, c.bufHi))
	}
	for c.bufHi <= seq {
		if c.traceEOF {
			return false
		}
		if !c.reader.Next(&c.a.buf[c.bufHi&bufMask]) {
			c.traceEOF = true
			return false
		}
		c.bufHi++
	}
	return true
}

// recAt returns the record for seq, pulling it into the ring first; nil
// at end of stream.
func (c *Core) recAt(seq uint64) *trace.Rec {
	if !c.fill(seq) {
		return nil
	}
	return &c.a.buf[seq&bufMask]
}

// paqLen returns the PAQ occupancy.
func (c *Core) paqLen() int { return int(c.paqTail - c.paqHead) }

// paqAt returns the i-th PAQ entry from the front.
func (c *Core) paqAt(i int) *paqEntry {
	return &c.a.paqBuf[(int(c.paqHead)+i)%len(c.a.paqBuf)]
}

// counters returns the cumulative counter vector: the core's own counts
// plus the cycle clock and the counts the predictors, the LSCD and the
// cache hierarchy keep. It is valid mid-run and allocates nothing.
func (c *Core) counters() metrics.Counters {
	v := c.ctr
	v[metrics.Cycles] = c.now
	if c.lscd != nil {
		v[metrics.LSCDInserts] = c.lscd.Inserts
		v[metrics.LSCDFiltered] = c.lscd.Filtered
	}
	if p := c.papPred; p != nil {
		v[metrics.APTLookups] = p.Lookups
		v[metrics.APTHits] = p.Hits
		v[metrics.APTAllocations] = p.Allocations
		v[metrics.APTConfResets] = p.ConfResets
		v[metrics.APTTagAliases] = p.TagAliases
		v[metrics.FPCBumps] = p.ConfBumps
		v[metrics.FPCSaturations] = p.ConfSaturations
	}
	if c.capPred != nil {
		v[metrics.CAPLookups] = c.capPred.Lookups
	}
	if c.vtPred != nil {
		v[metrics.VTAGELookups] = c.vtPred.Lookups
	}
	if c.dvPred != nil {
		v[metrics.DVTAGELookups] = c.dvPred.Lookups
	}
	h := c.hier
	v[metrics.Probes] = h.Probes
	v[metrics.ProbeHits] = h.ProbeHits
	v[metrics.WayMispredicts] = h.WayMispredictions
	v[metrics.L1IAccesses] = h.L1I.Accesses
	v[metrics.L1DAccesses] = h.L1D.Accesses
	v[metrics.L1DMisses] = h.L1D.Misses
	v[metrics.L2Accesses] = h.L2.Accesses
	v[metrics.L2Misses] = h.L2.Misses
	v[metrics.L3Accesses] = h.L3.Accesses
	v[metrics.L3Misses] = h.L3.Misses
	v[metrics.TLBAccesses] = h.TLB.Accesses
	v[metrics.TLBMisses] = h.TLB.Misses
	return v
}

func (c *Core) finalizeStats() {
	cum := c.counters()
	c.stats = cum.RunStats(c.stats.Workload, c.stats.Scheme)
	c.stats.CoreEnergy = c.Energy(cum)
	if c.tl != nil {
		c.timeline = c.tl.Finish(cum, c.tlPAQPeak)
	}
	if c.sp != nil {
		c.spFinish()
	}
}

// Stats returns the statistics accumulated so far (valid after Run).
func (c *Core) Stats() metrics.RunStats { return c.stats }

// Hierarchy returns the core's cache hierarchy, counters and lines
// included. It belongs to the core's arena: the next core built there
// renews or replaces it.
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }
