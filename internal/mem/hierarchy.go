package mem

import "dlvp/internal/predictor/stride"

// HierarchyConfig describes the full Table 4 memory system.
type HierarchyConfig struct {
	L1I, L1D, L2, L3 CacheConfig
	TLB              TLBConfig
	MemLatency       int
	// PrefetchEnabled turns on the baseline per-PC stride prefetchers.
	PrefetchEnabled bool
	// PrefetchDistance is how many strides ahead the prefetcher runs.
	PrefetchDistance int
}

// DefaultHierarchyConfig returns the paper's Table 4 memory system:
// 64B L1 blocks / 128B L2+L3 blocks, 64KB 4-way L1s (1-cycle I / 2-cycle D),
// 512KB 8-way L2 at 16 cycles, 8MB 16-way L3 at 32 cycles, 200-cycle
// memory, 512-entry 8-way TLB, stride prefetchers.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:              CacheConfig{Name: "L1I", SizeBytes: 64 << 10, BlockBytes: 64, Ways: 4, Latency: 1},
		L1D:              CacheConfig{Name: "L1D", SizeBytes: 64 << 10, BlockBytes: 64, Ways: 4, Latency: 2},
		L2:               CacheConfig{Name: "L2", SizeBytes: 512 << 10, BlockBytes: 128, Ways: 8, Latency: 16},
		L3:               CacheConfig{Name: "L3", SizeBytes: 8 << 20, BlockBytes: 128, Ways: 16, Latency: 32},
		TLB:              DefaultTLBConfig(),
		MemLatency:       200,
		PrefetchEnabled:  true,
		PrefetchDistance: 2,
	}
}

// AccessResult describes a demand access through the hierarchy.
type AccessResult struct {
	Latency int  // total cycles until data available
	L1Hit   bool // hit in the first-level cache
	L1Way   int  // way holding the block in L1 (after fill)
	TLBMiss bool
}

// Hierarchy glues the cache levels, TLB and prefetcher together.
type Hierarchy struct {
	cfg HierarchyConfig
	L1I *Cache
	L1D *Cache
	L2  *Cache
	L3  *Cache
	TLB *TLB

	pf *stride.Predictor

	// DLVP probe statistics (Section 3.2.2 power optimisation) and
	// prefetch fills (stride prefetcher and DLVP probe misses).
	Probes            uint64
	ProbeHits         uint64
	WayMispredictions uint64
	Prefetches        uint64
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return newHierarchy(cfg, [5][]line{})
}

// Renew returns a hierarchy in exactly NewHierarchy(h.Config())'s cold
// state, built on h's line storage: every cache and the TLB are new
// structs that take over h's cleared lines, and the stride prefetcher is
// new, so no counter, LRU stamp or line carries over. h must not be used
// afterwards.
func (h *Hierarchy) Renew() *Hierarchy {
	return newHierarchy(h.cfg, [5][]line{h.L1I.lines, h.L1D.lines, h.L2.lines, h.L3.lines, h.TLB.pages.lines})
}

// newHierarchy builds the memory system on the given line storage (L1I,
// L1D, L2, L3, TLB; nil entries allocate).
func newHierarchy(cfg HierarchyConfig, bufs [5][]line) *Hierarchy {
	h := &Hierarchy{
		cfg: cfg,
		L1I: newCache(cfg.L1I, bufs[0]),
		L1D: newCache(cfg.L1D, bufs[1]),
		L2:  newCache(cfg.L2, bufs[2]),
		L3:  newCache(cfg.L3, bufs[3]),
		TLB: newTLB(cfg.TLB, bufs[4]),
	}
	if cfg.PrefetchEnabled {
		h.pf = stride.New(stride.Config{Entries: 512, TagBits: 10, Confidence: 2, Seed: 0x9f})
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// missPath walks L2 -> L3 -> memory for a block absent from L1, returning
// the latency to data and filling the touched levels. now is the issue
// cycle of the access.
func (h *Hierarchy) missPath(now uint64, addr uint64) int {
	if r := h.L2.Access(now, addr); r.Hit {
		lat := h.cfg.L2.Latency + int(r.Ready-now)
		return lat
	}
	if r := h.L3.Access(now, addr); r.Hit {
		lat := h.cfg.L3.Latency + int(r.Ready-now)
		h.L2.Fill(addr, now+uint64(lat))
		return lat
	}
	lat := h.cfg.MemLatency
	h.L3.Fill(addr, now+uint64(lat))
	h.L2.Fill(addr, now+uint64(lat))
	return lat
}

// Load performs a demand data access at cycle now for the load at pc.
// It drives the TLB, the cache walk, fills, and the baseline stride
// prefetcher.
func (h *Hierarchy) Load(now uint64, pc, addr uint64) AccessResult {
	var res AccessResult
	if w := h.TLB.Access(addr); w > 0 {
		res.Latency += w
		res.TLBMiss = true
	}
	r := h.L1D.Access(now, addr)
	if r.Hit {
		res.L1Hit = true
		res.L1Way = r.Way
		res.Latency += h.cfg.L1D.Latency + int(r.Ready-now)
	} else {
		lat := h.cfg.L1D.Latency + h.missPath(now, addr)
		res.L1Way = h.L1D.Fill(addr, now+uint64(lat))
		res.Latency += lat
	}
	h.trainPrefetcher(now, pc, addr)
	return res
}

// Store performs the cache side of a committing store (write-allocate,
// write-back; only timing-free bookkeeping here since stores retire through
// the store buffer).
func (h *Hierarchy) Store(now uint64, addr uint64) {
	h.TLB.Access(addr)
	r := h.L1D.Access(now, addr)
	if !r.Hit {
		lat := h.cfg.L1D.Latency + h.missPath(now, addr)
		h.L1D.Fill(addr, now+uint64(lat))
	}
}

// Fetch performs an instruction fetch for the group at pc and returns the
// added latency beyond the pipelined L1I access (0 on an L1I hit).
func (h *Hierarchy) Fetch(now uint64, pc uint64) int {
	r := h.L1I.Access(now, pc)
	if r.Hit {
		return int(r.Ready - now)
	}
	lat := h.missPath(now, pc)
	h.L1I.Fill(pc, now+uint64(lat))
	return lat
}

// ProbeResult describes a DLVP speculative data-cache probe.
type ProbeResult struct {
	Hit        bool
	Way        int
	Latency    int // cycles to deliver the probed value (L1D latency (+TLB walk if miss))
	TLBMiss    bool
	WayCorrect bool // way prediction matched (valid when a way was predicted)
	// Outcome is the probe's cause code; consumers (the per-site
	// attribution layer) branch on it instead of reconstructing the
	// outcome from the Hit/WayCorrect booleans.
	Outcome ProbeOutcome
}

// ProbeOutcome classifies a DLVP L1D probe.
type ProbeOutcome uint8

const (
	// ProbeMiss: the block is not in the L1D; the prediction is lost (the
	// caller may prefetch).
	ProbeMiss ProbeOutcome = iota
	// ProbeHitWay: hit, delivered through the predicted (or only) path.
	ProbeHitWay
	// ProbeHitWayMispredict: hit, but the way prediction was wrong — the
	// value arrives after the full-set fallback read.
	ProbeHitWayMispredict
)

// Hit reports whether the probe found the block.
func (o ProbeOutcome) Hit() bool { return o != ProbeMiss }

// String returns the outcome's wire name.
func (o ProbeOutcome) String() string {
	switch o {
	case ProbeMiss:
		return "miss"
	case ProbeHitWay:
		return "hit"
	case ProbeHitWayMispredict:
		return "hit_way_mispredict"
	}
	return "unknown"
}

// Probe speculatively reads the L1D for a predicted address (DLVP step 3).
// predictedWay >= 0 engages way prediction: only that way is read (the
// power optimisation), and a mismatch is recorded as a way misprediction
// (the full-set fallback read still returns the data). The probe does not
// fill the cache; on a miss the caller may issue a prefetch.
func (h *Hierarchy) Probe(addr uint64, predictedWay int) ProbeResult {
	h.Probes++
	var res ProbeResult
	// A way-predicted probe reads a single way in one cycle (the paper's
	// "1-cycle for reading the data cache, facilitated by way prediction");
	// without a predicted way the probe pays the full L1D access latency.
	if predictedWay >= 0 {
		res.Latency = 1
	} else {
		res.Latency = h.cfg.L1D.Latency
	}
	if w := h.TLB.Access(addr); w > 0 {
		res.TLBMiss = true
		res.Latency += w
	}
	hit, way := h.L1D.Peek(addr)
	res.Hit = hit
	res.Way = way
	if hit {
		h.ProbeHits++
		res.Outcome = ProbeHitWay
		if predictedWay >= 0 {
			res.WayCorrect = predictedWay == way
			if !res.WayCorrect {
				h.WayMispredictions++
				res.Outcome = ProbeHitWayMispredict
				// Fallback full-set read after the mispredicted way.
				res.Latency += h.cfg.L1D.Latency
			}
		}
	}
	return res
}

// Prefetch installs the block containing addr (DLVP's probe-miss prefetch,
// step 5). The block becomes ready after the full miss path, so a demand
// load arriving earlier still waits for the remainder.
func (h *Hierarchy) Prefetch(now uint64, addr uint64) {
	if hit, _ := h.L1D.Peek(addr); hit {
		return
	}
	h.Prefetches++
	lat := h.missPath(now, addr)
	h.L1D.Fill(addr, now+uint64(lat))
}

// trainPrefetcher drives the baseline per-PC stride prefetcher on demand
// loads.
func (h *Hierarchy) trainPrefetcher(now uint64, pc, addr uint64) {
	if h.pf == nil {
		return
	}
	lk := h.pf.Predict(pc)
	h.pf.Train(lk, addr)
	if lk.Confident && lk.Stride != 0 {
		for d := 1; d <= h.cfg.PrefetchDistance; d++ {
			h.Prefetch(now, addr+uint64(int64(d)*lk.Stride))
		}
	}
}
