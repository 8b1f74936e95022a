package mem

import (
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return NewCache(CacheConfig{Name: "t", SizeBytes: 1024, BlockBytes: 64, Ways: 2, Latency: 2})
}

func TestCacheMissThenHit(t *testing.T) {
	c := smallCache()
	r := c.Access(0, 0x1000)
	if r.Hit {
		t.Fatal("cold access must miss")
	}
	c.Fill(0x1000, 10)
	r = c.Access(20, 0x1000)
	if !r.Hit {
		t.Fatal("filled block must hit")
	}
	if r.Ready != 20 {
		t.Errorf("ready = %d, want 20 (fill complete)", r.Ready)
	}
	// Same block, different offset.
	if r := c.Access(21, 0x103f); !r.Hit {
		t.Error("same block, different offset must hit")
	}
	// Next block must miss.
	if r := c.Access(22, 0x1040); r.Hit {
		t.Error("adjacent block must miss")
	}
}

func TestCacheLateHit(t *testing.T) {
	c := smallCache()
	c.Fill(0x1000, 100) // in flight until cycle 100
	r := c.Access(50, 0x1000)
	if !r.Hit {
		t.Fatal("in-flight block must register as (late) hit")
	}
	if r.Ready != 100 {
		t.Errorf("late hit ready = %d, want 100", r.Ready)
	}
	if c.LateHits != 1 {
		t.Errorf("LateHits = %d, want 1", c.LateHits)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache() // 2 ways, 8 sets
	// Three blocks mapping to the same set (stride = numSets*block = 512B).
	a, b, d := uint64(0x0000), uint64(0x0200), uint64(0x0400)
	c.Fill(a, 0)
	c.Fill(b, 0)
	c.Access(10, a) // make a MRU
	c.Fill(d, 0)    // must evict b
	if hit, _ := c.Peek(a); !hit {
		t.Error("MRU block evicted")
	}
	if hit, _ := c.Peek(b); hit {
		t.Error("LRU block survived")
	}
	if hit, _ := c.Peek(d); !hit {
		t.Error("new block absent")
	}
}

func TestCachePeekDoesNotDisturb(t *testing.T) {
	c := smallCache()
	c.Fill(0x0000, 0)
	c.Fill(0x0200, 0)
	acc := c.Accesses
	c.Peek(0x0000) // must not refresh LRU or count an access
	if c.Accesses != acc {
		t.Error("Peek counted as access")
	}
	c.Fill(0x0400, 0) // evicts 0x0000 (still LRU despite the Peek)
	if hit, _ := c.Peek(0x0000); hit {
		t.Error("Peek must not refresh LRU")
	}
}

func TestCacheRefillRefreshesReadiness(t *testing.T) {
	c := smallCache()
	c.Fill(0x1000, 100)
	c.Fill(0x1000, 50) // earlier completion wins
	r := c.Access(60, 0x1000)
	if r.Ready != 60 {
		t.Errorf("ready = %d, want 60", r.Ready)
	}
	c.Fill(0x1000, 500) // later fill must not delay an already-ready line
	r = c.Access(70, 0x1000)
	if r.Ready != 70 {
		t.Errorf("ready after late refill = %d, want 70", r.Ready)
	}
}

func TestCacheMissRate(t *testing.T) {
	c := smallCache()
	c.Access(0, 0x1000)
	c.Fill(0x1000, 0)
	c.Access(1, 0x1000)
	if got := c.MissRate(); got != 50 {
		t.Errorf("miss rate = %v, want 50", got)
	}
	if NewCache(c.cfg).MissRate() != 0 {
		t.Error("empty cache miss rate must be 0")
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{SizeBytes: 1000, BlockBytes: 64, Ways: 2},
		{SizeBytes: 1024, BlockBytes: 60, Ways: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v must panic", cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
}

// Property: after Fill(addr), Peek(addr) hits, for any address.
func TestCacheFillPeekProperty(t *testing.T) {
	c := NewCache(CacheConfig{Name: "p", SizeBytes: 4096, BlockBytes: 64, Ways: 4, Latency: 1})
	f := func(addr uint64) bool {
		c.Fill(addr, 0)
		hit, way := c.Peek(addr)
		return hit && way >= 0 && way < 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	if lat := tlb.Access(0x1000); lat != 20 {
		t.Errorf("cold TLB access latency = %d, want walk 20", lat)
	}
	if lat := tlb.Access(0x1fff); lat != 0 {
		t.Errorf("same page must hit, lat = %d", lat)
	}
	if lat := tlb.Access(0x2000); lat != 20 {
		t.Errorf("next page must miss, lat = %d", lat)
	}
	if tlb.MissRate() != 200.0/3 {
		t.Errorf("miss rate = %v", tlb.MissRate())
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 8, Ways: 2, PageBytes: 4096, WalkLatency: 20})
	// 3 pages mapping to set 0 (stride = 4 sets * 4096).
	p0, p1, p2 := uint64(0), uint64(4*4096), uint64(8*4096)
	tlb.Access(p0)
	tlb.Access(p1)
	tlb.Access(p0) // refresh p0
	tlb.Access(p2) // evict p1
	if lat := tlb.Access(p0); lat != 0 {
		t.Error("refreshed entry evicted")
	}
	if lat := tlb.Access(p1); lat == 0 {
		t.Error("LRU entry survived")
	}
}

func TestHierarchyLoadLatencies(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchEnabled = false
	h := NewHierarchy(cfg)
	// Cold: TLB walk + L1D + full miss path to memory.
	r := h.Load(0, 0x400100, 0x1000_0000)
	wantCold := cfg.TLB.WalkLatency + cfg.L1D.Latency + cfg.MemLatency
	if r.Latency != wantCold || r.L1Hit {
		t.Errorf("cold load = %+v, want latency %d", r, wantCold)
	}
	// Warm: pure L1D hit — but the fill is still in flight at cycle 1.
	r = h.Load(1000, 0x400100, 0x1000_0000)
	if !r.L1Hit || r.Latency != cfg.L1D.Latency {
		t.Errorf("warm load = %+v, want L1 hit at %d cycles", r, cfg.L1D.Latency)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchEnabled = false
	h := NewHierarchy(cfg)
	h.Load(0, 0x400100, 0x1000_0000)
	// Evict from L1 by filling the same L1 set, then reload: should hit L2.
	// L1D: 64KB/4-way/64B = 256 sets; same-set stride = 256*64 = 16KB.
	for i := 1; i <= 4; i++ {
		h.Load(100*uint64(i), 0x400200, 0x1000_0000+uint64(i)*16384)
	}
	r := h.Load(10_000, 0x400100, 0x1000_0000)
	if r.L1Hit {
		t.Fatal("block should have been evicted from L1")
	}
	want := cfg.L1D.Latency + cfg.L2.Latency
	if r.Latency != want {
		t.Errorf("L2 hit latency = %d, want %d", r.Latency, want)
	}
}

func TestProbeHitAndWayPrediction(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchEnabled = false
	h := NewHierarchy(cfg)
	h.Load(0, 0x400100, 0x2000_0000) // warm the line and TLB
	hit, way := h.L1D.Peek(0x2000_0000)
	if !hit {
		t.Fatal("setup failed")
	}
	r := h.Probe(0x2000_0000, way)
	if !r.Hit || !r.WayCorrect || r.Latency != 1 {
		t.Errorf("probe = %+v, want 1-cycle way-predicted hit", r)
	}
	// Wrong way: still a hit, full-set fallback read, counted.
	r = h.Probe(0x2000_0000, (way+1)%4)
	if !r.Hit || r.WayCorrect || r.Latency != 1+cfg.L1D.Latency {
		t.Errorf("wrong-way probe = %+v", r)
	}
	// No way prediction: full access latency.
	r = h.Probe(0x2000_0000, -1)
	if !r.Hit || r.Latency != cfg.L1D.Latency {
		t.Errorf("unassisted probe = %+v", r)
	}
	if h.WayMispredictions != 1 {
		t.Errorf("way mispredictions = %d, want 1", h.WayMispredictions)
	}
}

func TestProbeMissDoesNotFill(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchEnabled = false
	h := NewHierarchy(cfg)
	r := h.Probe(0x3000_0000, -1)
	if r.Hit {
		t.Fatal("cold probe must miss")
	}
	if hit, _ := h.L1D.Peek(0x3000_0000); hit {
		t.Error("probe must not fill the cache")
	}
}

func TestPrefetchInstallsInFlight(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchEnabled = false
	h := NewHierarchy(cfg)
	h.Prefetch(0, 0x4000_0000)
	if h.Prefetches != 1 {
		t.Fatal("prefetch not counted")
	}
	// A demand load immediately after pays the remaining fill latency, not
	// the full miss.
	r := h.Load(10, 0x400100, 0x4000_0000)
	if !r.L1Hit {
		t.Fatal("prefetched block must register as L1 (late) hit")
	}
	if r.Latency >= cfg.TLB.WalkLatency+cfg.L1D.Latency+cfg.MemLatency || r.Latency <= cfg.L1D.Latency {
		t.Errorf("late-hit latency = %d, expected between L1 hit and full miss", r.Latency)
	}
	// Much later, it is a plain hit.
	r = h.Load(10_000, 0x400100, 0x4000_0000)
	if !r.L1Hit || r.Latency != cfg.L1D.Latency {
		t.Errorf("settled prefetch = %+v", r)
	}
	// Prefetching a present block is a no-op.
	h.Prefetch(20_000, 0x4000_0000)
	if h.Prefetches != 1 {
		t.Error("present-block prefetch must not count")
	}
}

func TestStridePrefetcherCoversStriddenStream(t *testing.T) {
	cfg := DefaultHierarchyConfig() // prefetch on
	h := NewHierarchy(cfg)
	// Stride through memory; after training, most accesses should hit.
	misses := 0
	addr := uint64(0x5000_0000)
	now := uint64(0)
	for i := 0; i < 200; i++ {
		r := h.Load(now, 0x400100, addr)
		if !r.L1Hit {
			misses++
		}
		addr += 64
		now += 300
	}
	if misses > 20 {
		t.Errorf("stride stream misses = %d/200 with prefetcher on", misses)
	}
}

func TestFetchPath(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	if lat := h.Fetch(0, 0x400000); lat != cfg.MemLatency {
		t.Errorf("cold fetch extra latency = %d, want %d", lat, cfg.MemLatency)
	}
	if lat := h.Fetch(1000, 0x400000); lat != 0 {
		t.Errorf("warm fetch extra latency = %d, want 0", lat)
	}
}

func TestStoreFillsCache(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.PrefetchEnabled = false
	h := NewHierarchy(cfg)
	h.Store(0, 0x6000_0000)
	if hit, _ := h.L1D.Peek(0x6000_0000); !hit {
		t.Error("write-allocate store must install the block")
	}
}
