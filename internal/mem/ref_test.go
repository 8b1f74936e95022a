package mem

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refCache is the naive set-associative LRU that Cache and TLB are held
// to: each set keeps its resident tags in recency order, least recently
// used first. It derives set and tag by division, independently of the
// shifts and masks the real structures use, and it has no ways, so which
// empty way a fill takes, the first or the last, cannot show in it.
type refCache struct {
	block, sets            uint64
	ways                   int
	lru                    [][]uint64
	accesses, hits, misses uint64
	refills                uint64 // fills of a resident tag
}

func newRefCache(blockBytes, sets, ways int) *refCache {
	return &refCache{block: uint64(blockBytes), sets: uint64(sets), ways: ways, lru: make([][]uint64, sets)}
}

func (r *refCache) locate(addr uint64) (set int, tag uint64) {
	blk := addr / r.block
	return int(blk % r.sets), blk / r.sets
}

// access reports whether addr hits. A hit makes its tag the most recently
// used; a miss installs it.
func (r *refCache) access(addr uint64) bool {
	r.accesses++
	set, tag := r.locate(addr)
	if i := slices.Index(r.lru[set], tag); i >= 0 {
		r.hits++
		r.lru[set] = append(slices.Delete(r.lru[set], i, i+1), tag)
		return true
	}
	r.misses++
	r.fill(addr)
	return false
}

// fill installs addr's tag as the most recently used, evicting the least
// recently used one from a full set. Refilling a resident tag changes
// nothing.
func (r *refCache) fill(addr uint64) {
	set, tag := r.locate(addr)
	if slices.Contains(r.lru[set], tag) {
		r.refills++
		return
	}
	if len(r.lru[set]) == r.ways {
		r.lru[set] = slices.Delete(r.lru[set], 0, 1)
	}
	r.lru[set] = append(r.lru[set], tag)
}

// residentLRU returns the tags resident in addr's set of c, least
// recently used first: the order refCache keeps.
func residentLRU(c *Cache, addr uint64) []uint64 {
	set, _ := c.setAndTag(addr)
	var live []line
	for _, l := range set {
		if l.used != 0 {
			live = append(live, l)
		}
	}
	slices.SortFunc(live, func(a, b line) int { return cmp.Compare(a.used, b.used) })
	tags := make([]uint64, len(live))
	for i, l := range live {
		tags[i] = l.tag
	}
	return tags
}

// refOp is one step of a reference stream: a demand access, or with fill
// set a bare Fill (a prefetch, or a refill of a resident line).
type refOp struct {
	addr uint64
	fill bool
}

// refStream is one named sequence of steps.
type refStream struct {
	name string
	ops  []refOp
}

// refStreams returns seeded address streams for a geometry: uniform
// accesses over twice its capacity, accesses confined to a few sets
// (stride sets × block size), a cyclic sweep of ways+1 lines through one
// set that LRU misses on every access, and accesses interleaved with
// fills of recently touched (mostly resident) and fresh lines.
func refStreams(seed int64, blockBytes, sets, ways int) []refStream {
	rng := rand.New(rand.NewSource(seed))
	block, nsets := uint64(blockBytes), uint64(sets)
	lines := uint64(sets * ways)
	n := max(20_000, 3*int(lines))
	base := uint64(rng.Int63()) &^ (block*nsets - 1)
	addr := func(set, tag uint64) uint64 {
		return base + (tag*nsets+set)*block + uint64(rng.Int63n(int64(block)))
	}
	random := func() uint64 { b := uint64(rng.Int63n(int64(2 * lines))); return addr(b%nsets, b/nsets) }

	hot := []uint64{0, nsets / 2, nsets - 1}
	conflicting := func() uint64 { return addr(hot[rng.Intn(len(hot))], uint64(rng.Intn(ways+3))) }

	s := []refStream{{name: "random"}, {name: "conflict"}, {name: "sweep"}, {name: "refill"}}
	for i := 0; i < n; i++ {
		s[0].ops = append(s[0].ops, refOp{addr: random()})
		s[1].ops = append(s[1].ops, refOp{addr: conflicting()})
	}
	for i := 0; i < 4*(ways+1); i++ {
		s[2].ops = append(s[2].ops, refOp{addr: addr(nsets/2, uint64(i%(ways+1)))})
	}
	var recent []uint64
	for i := 0; i < n; i++ {
		switch k := rng.Intn(4); {
		case k == 0 && len(recent) > 0:
			s[3].ops = append(s[3].ops, refOp{addr: recent[rng.Intn(len(recent))], fill: true})
		case k == 1:
			s[3].ops = append(s[3].ops, refOp{addr: random(), fill: true})
		default:
			a := random()
			if rng.Intn(2) == 0 {
				a = conflicting()
			}
			s[3].ops = append(s[3].ops, refOp{addr: a})
			if recent = append(recent, a); len(recent) > ways {
				recent = recent[1:]
			}
		}
	}
	return s
}

// TestCacheAndTLBMatchLRUReference drives Cache (Access, then Fill on a
// miss) and TLB (Access) with the same seeded streams as refCache. After
// every step both must agree with it on the hit or miss and on the
// resident tags of the touched set in recency order, and at the end on
// the Accesses/Hits/Misses totals.
func TestCacheAndTLBMatchLRUReference(t *testing.T) {
	h := DefaultHierarchyConfig()
	caches := []CacheConfig{h.L1I, h.L1D, h.L2, h.L3,
		{Name: "fully-associative", SizeBytes: 8 * 64, BlockBytes: 64, Ways: 8},
		{Name: "direct-mapped", SizeBytes: 64 * 32, BlockBytes: 32, Ways: 1},
	}
	for ci, cfg := range caches {
		sets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Ways)
		for _, st := range refStreams(int64(ci+1), cfg.BlockBytes, sets, cfg.Ways) {
			t.Run(cfg.Name+"/"+st.name, func(t *testing.T) {
				c, ref := NewCache(cfg), newRefCache(cfg.BlockBytes, sets, cfg.Ways)
				for i, op := range st.ops {
					now := uint64(i)
					if op.fill {
						c.Fill(op.addr, now+5)
						ref.fill(op.addr)
					} else {
						hit := c.Access(now, op.addr).Hit
						if want := ref.access(op.addr); hit != want {
							t.Fatalf("op %d: access %#x hit = %v, reference %v", i, op.addr, hit, want)
						}
						if !hit {
							c.Fill(op.addr, now+5)
						}
					}
					set, _ := ref.locate(op.addr)
					if got := residentLRU(c, op.addr); !slices.Equal(got, ref.lru[set]) {
						t.Fatalf("op %d (%#x): set holds %x in LRU order, reference %x", i, op.addr, got, ref.lru[set])
					}
				}
				if c.Accesses != ref.accesses || c.Hits != ref.hits || c.Misses != ref.misses {
					t.Errorf("totals %d/%d/%d accesses/hits/misses, reference %d/%d/%d",
						c.Accesses, c.Hits, c.Misses, ref.accesses, ref.hits, ref.misses)
				}
				switch {
				case st.name == "sweep" && ref.hits != 0:
					t.Errorf("a sweep of ways+1 lines through one set hit %d times under LRU", ref.hits)
				case st.name != "sweep" && (ref.hits == 0 || ref.misses == 0):
					t.Errorf("stream exercised %d hits and %d misses, want both", ref.hits, ref.misses)
				case st.name == "refill" && ref.refills == 0:
					t.Error("stream refilled no resident line")
				}
			})
		}
	}

	tlbs := []TLBConfig{h.TLB, {Entries: 8, Ways: 2, PageBytes: 4096, WalkLatency: 20}}
	for ti, cfg := range tlbs {
		sets := cfg.Entries / cfg.Ways
		for _, st := range refStreams(int64(100+ti), cfg.PageBytes, sets, cfg.Ways) {
			t.Run(fmt.Sprintf("TLB-%d-%d/%s", cfg.Entries, cfg.Ways, st.name), func(t *testing.T) {
				tlb, ref := NewTLB(cfg), newRefCache(cfg.PageBytes, sets, cfg.Ways)
				for i, op := range st.ops {
					if op.fill {
						continue // a TLB fills only on its own misses
					}
					hit := tlb.Access(op.addr) == 0
					if want := ref.access(op.addr); hit != want {
						t.Fatalf("op %d: translate %#x hit = %v, reference %v", i, op.addr, hit, want)
					}
					set, _ := ref.locate(op.addr)
					if got := residentLRU(tlb.pages, op.addr); !slices.Equal(got, ref.lru[set]) {
						t.Fatalf("op %d (%#x): set holds pages %x in LRU order, reference %x", i, op.addr, got, ref.lru[set])
					}
				}
				if tlb.Accesses != ref.accesses || tlb.Hits != ref.hits || tlb.Misses != ref.misses {
					t.Errorf("totals %d/%d/%d accesses/hits/misses, reference %d/%d/%d",
						tlb.Accesses, tlb.Hits, tlb.Misses, ref.accesses, ref.hits, ref.misses)
				}
			})
		}
	}
}
