package checkpoint

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync/atomic"

	"dlvp/internal/emu"
	"dlvp/internal/lru"
	"dlvp/internal/program"
)

// DefaultBudgetBytes bounds the store's resident encoded checkpoints
// when a caller passes 0 to NewStore. A checkpoint costs roughly
// 4 KiB per resident memory page plus ~0.5 KiB of header, so the
// default holds thousands of checkpoints for the mini-ISA kernels.
const DefaultBudgetBytes = int64(256 << 20)

// Outcome classifies how a StateAt request was served.
type Outcome string

const (
	// OutcomeFresh: offset 0 — a fresh CPU, no store involvement.
	OutcomeFresh Outcome = "fresh"
	// OutcomeHit: decoded from a resident checkpoint at the exact offset.
	OutcomeHit Outcome = "hit"
	// OutcomeChained: restored the nearest earlier checkpoint and
	// emulated the gap (the result is stored for next time).
	OutcomeChained Outcome = "chained"
	// OutcomeCold: no earlier checkpoint existed; emulated from the
	// program entry (the result is stored for next time).
	OutcomeCold Outcome = "cold"
	// OutcomeCoalesced: waited on a concurrent build of the same key.
	OutcomeCoalesced Outcome = "coalesced"
)

// HaltedEarlyError reports a workload that halted before reaching the
// requested checkpoint offset — the stream simply has no state there.
type HaltedEarlyError struct {
	Workload string
	Want     uint64 // requested offset
	Got      uint64 // instructions actually executed
}

func (e *HaltedEarlyError) Error() string {
	return fmt.Sprintf("checkpoint: workload %q halted after %d instructions, before offset %d",
		e.Workload, e.Got, e.Want)
}

// entry is one resident encoded checkpoint.
type entry struct {
	workload string
	offset   uint64
	enc      []byte
	sum      [sha256.Size]byte
}

func newEntry(workload string, offset uint64, snap *emu.Snapshot) *entry {
	enc := Encode(snap)
	return &entry{workload: workload, offset: offset, enc: enc, sum: sha256.Sum256(enc)}
}

// decode verifies the entry's content hash and decodes it into a private
// snapshot.
func (e *entry) decode() (*emu.Snapshot, error) {
	if sha256.Sum256(e.enc) != e.sum {
		return nil, fmt.Errorf("checkpoint: content hash mismatch for %q@%d", e.workload, e.offset)
	}
	return Decode(e.enc)
}

// Stats is a snapshot of the store counters.
type Stats struct {
	BudgetBytes   int64 `json:"budget_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
	Entries       int   `json:"entries"`
	Hits          int64 `json:"hits"`    // exact-offset restores
	Chained       int64 `json:"chained"` // restored an earlier checkpoint, emulated the gap
	Cold          int64 `json:"cold"`    // emulated from the program entry
	Coalesced     int64 `json:"coalesced"`
	Evictions     int64 `json:"evictions"`
}

// Store is an in-memory, byte-budgeted, content-addressed checkpoint
// store keyed by (workload, instruction offset). StateAt is the only way
// in: every resident checkpoint is one a StateAt request built. Safe for
// concurrent use. The zero value is not usable; construct with NewStore.
// A nil *Store is valid and behaves as an always-cold store with no
// retention.
type Store struct {
	// cache holds encoded checkpoints at their encoded size, and its Do
	// coalesces concurrent builds of one offset.
	cache *lru.Cache[*entry]

	hits      atomic.Int64
	chained   atomic.Int64
	cold      atomic.Int64
	coalesced atomic.Int64
}

// NewStore returns a store retaining up to budget bytes of encoded
// checkpoints (0 selects DefaultBudgetBytes).
func NewStore(budget int64) *Store {
	if budget <= 0 {
		budget = DefaultBudgetBytes
	}
	return &Store{cache: lru.New[*entry](budget)}
}

// storeKey builds the map key for (workload, offset); the offset is
// fixed-width so keys never collide across the name boundary.
func storeKey(workload string, offset uint64) string {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(offset >> (8 * i))
	}
	return workload + "\x00" + string(buf[:])
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	cs := s.cache.Stats()
	return Stats{
		BudgetBytes:   cs.Budget,
		ResidentBytes: cs.Cost,
		Entries:       cs.Len,
		Hits:          s.hits.Load(),
		Chained:       s.chained.Load(),
		Cold:          s.cold.Load(),
		Coalesced:     s.coalesced.Load(),
		Evictions:     cs.Evictions,
	}
}

// StateAt returns the architectural state of workload (built from prog)
// after exactly offset dynamic instructions. The returned snapshot is a
// private copy the caller owns. Service order: exact resident checkpoint
// (decoded and hash-verified), else restore the nearest earlier
// checkpoint and emulate the gap, else emulate from the program entry;
// either build deposits a checkpoint at offset for next time.
// Concurrent requests for the same (workload, offset) coalesce onto one
// build. A workload that halts before offset yields *HaltedEarlyError.
func (s *Store) StateAt(workload string, prog *program.Program, offset uint64) (*emu.Snapshot, Outcome, error) {
	if offset == 0 {
		return emu.New(prog).Snapshot(), OutcomeFresh, nil
	}
	if s == nil {
		return buildFrom(nil, workload, prog, offset)
	}
	key := storeKey(workload, offset)
	for {
		var built *emu.Snapshot
		outcome := OutcomeCoalesced
		e, how, err := s.cache.Do(context.TODO(), key, func(context.Context) (*entry, int64, error) {
			snap, o, err := buildFrom(s.base(workload, offset), workload, prog, offset)
			outcome = o
			if err != nil {
				return nil, 0, err
			}
			built = snap
			e := newEntry(workload, offset, snap)
			return e, int64(len(e.enc)), nil
		})
		if err != nil {
			return nil, outcome, err
		}
		if how == lru.Miss {
			if outcome == OutcomeChained {
				s.chained.Add(1)
			} else {
				s.cold.Add(1)
			}
			return built, outcome, nil
		}
		snap, err := e.decode()
		if err != nil {
			// Corruption must not be served: drop it and rebuild.
			s.cache.Remove(key)
			continue
		}
		if how == lru.Hit {
			s.hits.Add(1)
			return snap, OutcomeHit, nil
		}
		s.coalesced.Add(1)
		return snap, OutcomeCoalesced, nil
	}
}

// base returns the nearest resident checkpoint of workload below offset,
// decoded, or nil when there is none. It scans every resident checkpoint,
// which costs little next to the emulation of at least a stride that
// every build runs. A corrupt candidate is dropped and the scan repeated.
func (s *Store) base(workload string, offset uint64) *emu.Snapshot {
	for {
		var best *entry
		var bestKey string
		s.cache.Range(func(key string, e *entry) bool {
			if e.workload == workload && e.offset < offset && (best == nil || e.offset > best.offset) {
				best, bestKey = e, key
			}
			return true
		})
		if best == nil {
			return nil
		}
		s.cache.Get(bestKey) // a chain base counts as a use
		if snap, err := best.decode(); err == nil {
			return snap
		}
		s.cache.Remove(bestKey)
	}
}

// buildFrom emulates workload forward to offset, starting from base
// (nil: the program entry). It returns a snapshot at exactly offset.
func buildFrom(base *emu.Snapshot, workload string, prog *program.Program, offset uint64) (*emu.Snapshot, Outcome, error) {
	var cpu *emu.CPU
	outcome := OutcomeCold
	if base != nil && base.Seq <= offset {
		cpu = emu.NewFromSnapshot(prog, base)
		outcome = OutcomeChained
	} else {
		cpu = emu.New(prog)
	}
	cpu.Run(offset - cpu.Executed())
	if cpu.Executed() != offset {
		return nil, outcome, &HaltedEarlyError{Workload: workload, Want: offset, Got: cpu.Executed()}
	}
	return cpu.Snapshot(), outcome, nil
}
