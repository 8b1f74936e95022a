package mem

// TLBConfig describes the translation lookaside buffer (Table 4: 512-entry,
// 8-way set-associative).
type TLBConfig struct {
	Entries     int
	Ways        int
	PageBytes   int
	WalkLatency int // page-walk penalty in cycles on a miss
}

// DefaultTLBConfig returns the Table 4 TLB with a conventional walk cost.
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{Entries: 512, Ways: 8, PageBytes: 4096, WalkLatency: 20}
}

// TLB models the translation lookaside buffer. Only timing matters here
// (the simulator is virtually addressed), so the TLB is a cache of pages:
// one line per page, filled on a miss.
type TLB struct {
	cfg   TLBConfig
	pages *Cache

	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// NewTLB returns a TLB with the given geometry.
func NewTLB(cfg TLBConfig) *TLB { return newTLB(cfg, nil) }

// newTLB returns a cold TLB whose page cache takes over buf as newCache
// does.
func newTLB(cfg TLBConfig, buf []line) *TLB {
	if cfg.Entries == 0 {
		cfg = DefaultTLBConfig()
	}
	return &TLB{cfg: cfg, pages: newCache(CacheConfig{
		Name:       "TLB",
		SizeBytes:  cfg.Entries * cfg.PageBytes,
		BlockBytes: cfg.PageBytes,
		Ways:       cfg.Ways,
	}, buf)}
}

// Config returns the TLB geometry.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Access translates addr: it returns the added latency (0 on a hit, the
// walk penalty on a miss) and fills on a miss.
func (t *TLB) Access(addr uint64) int {
	t.Accesses++
	if t.pages.Access(0, addr).Hit {
		t.Hits++
		return 0
	}
	t.Misses++
	t.pages.Fill(addr, 0)
	return t.cfg.WalkLatency
}

// MissRate returns misses/accesses in percent.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return 100 * float64(t.Misses) / float64(t.Accesses)
}
