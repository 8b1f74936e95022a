// Package mem models the baseline core's memory hierarchy (Table 4):
// split 64KB 4-way L1 caches, a private 512KB 8-way L2, a shared 8MB 16-way
// L3, a 512-entry 8-way TLB, and per-PC stride prefetchers. The model is
// latency-oriented: every structure tracks hit/miss counts and access
// energy events, misses install lines with a readiness timestamp (so a
// demand access shortly after a prefetch still pays the remaining latency),
// and bandwidth/MSHR contention is intentionally not modelled.
package mem

import "math/bits"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	BlockBytes int
	Ways       int
	Latency    int // access latency in cycles on a hit
}

// line is one cache way. A line is valid exactly when its LRU stamp is
// non-zero: a hit and a fill both store a pre-incremented stamp, so the
// zero value is the invalid line.
type line struct {
	tag   uint64
	ready uint64 // cycle at which the fill completes
	used  uint64 // LRU stamp (0: invalid)
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg      CacheConfig
	lines    []line // set s holds lines[s*Ways : (s+1)*Ways]
	setMask  uint64
	blkShift uint8 // log2(BlockBytes)
	tagShift uint8 // log2(BlockBytes × sets): addr >> tagShift is the tag
	stamp    uint64

	Accesses uint64
	Hits     uint64
	Misses   uint64
	// LateHits are accesses that found the line present but still in
	// flight (a prefetch or earlier miss had not completed).
	LateHits uint64
}

// NewCache returns a cache with the given geometry.
func NewCache(cfg CacheConfig) *Cache { return newCache(cfg, nil) }

// newCache returns a cold cache with the given geometry. It takes over buf
// as its line storage, cleared, when buf has the geometry's length, and
// allocates new storage otherwise.
func newCache(cfg CacheConfig, buf []line) *Cache {
	if cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		panic("mem: block size must be a power of two")
	}
	numSets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Ways)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("mem: set count must be a positive power of two")
	}
	if n := numSets * cfg.Ways; len(buf) == n {
		clear(buf)
	} else {
		buf = make([]line, n)
	}
	blkShift := uint8(bits.TrailingZeros(uint(cfg.BlockBytes)))
	return &Cache{
		cfg:      cfg,
		lines:    buf,
		setMask:  uint64(numSets - 1),
		blkShift: blkShift,
		tagShift: blkShift + uint8(bits.TrailingZeros(uint(numSets))),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// setAndTag returns the lines of the set addr maps to, and addr's tag.
func (c *Cache) setAndTag(addr uint64) ([]line, uint64) {
	i := int((addr>>c.blkShift)&c.setMask) * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways], addr >> c.tagShift
}

// LookupResult describes one cache access.
type LookupResult struct {
	Hit   bool
	Way   int    // hitting or filled way
	Ready uint64 // cycle the data is available (>= now)
}

// Access looks up addr at cycle now, updating LRU on a hit. A line that is
// present but not yet ready counts as a hit whose data arrives at its fill
// time (the "late hit" case).
func (c *Cache) Access(now uint64, addr uint64) LookupResult {
	c.Accesses++
	set, tag := c.setAndTag(addr)
	for w := range set {
		l := &set[w]
		if l.used != 0 && l.tag == tag {
			c.Hits++
			c.stamp++
			l.used = c.stamp
			ready := now
			if l.ready > now {
				c.LateHits++
				ready = l.ready
			}
			return LookupResult{Hit: true, Way: w, Ready: ready}
		}
	}
	c.Misses++
	return LookupResult{Hit: false, Way: -1}
}

// Peek looks up addr without touching LRU or statistics; the DLVP probe
// path uses it when only presence matters.
func (c *Cache) Peek(addr uint64) (hit bool, way int) {
	set, tag := c.setAndTag(addr)
	for w := range set {
		l := &set[w]
		if l.used != 0 && l.tag == tag {
			return true, w
		}
	}
	return false, -1
}

// Fill installs the block containing addr, ready at cycle ready, and
// returns the way chosen (LRU victim). Filling an already-present block
// refreshes its readiness if the new fill completes sooner.
func (c *Cache) Fill(addr uint64, ready uint64) int {
	set, tag := c.setAndTag(addr)
	victim, oldest := 0, ^uint64(0)
	for w := range set {
		l := &set[w]
		if l.used != 0 && l.tag == tag {
			if ready < l.ready {
				l.ready = ready
			}
			return w
		}
		if l.used == 0 {
			victim, oldest = w, 0
			continue
		}
		if l.used < oldest {
			victim, oldest = w, l.used
		}
	}
	c.stamp++
	set[victim] = line{tag: tag, ready: ready, used: c.stamp}
	return victim
}

// MissRate returns misses/accesses in percent.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return 100 * float64(c.Misses) / float64(c.Accesses)
}
