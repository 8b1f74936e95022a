// Package checkpoint provides SimPoint-style architectural checkpoints
// for the functional emulator and the store the sampled simulation mode
// restores them from.
//
// A checkpoint is an emu.Snapshot — registers, PC, dynamic instruction
// count, halt flag and the resident memory page set — kept as built,
// keyed by (workload, instruction offset), and handed out only as clones.
// Because the emulator is deterministic, restoring the checkpoint at
// offset N and continuing execution reproduces the instruction stream of
// a fresh emulation bit-for-bit from N onward; that invariant is what
// lets the sampling driver in internal/runner stitch per-interval
// measurements into a whole-run estimate.
package checkpoint

import (
	"context"
	"fmt"
	"sync/atomic"

	"dlvp/internal/emu"
	"dlvp/internal/lru"
	"dlvp/internal/program"
)

// buildChunk is how many instructions a build emulates between two looks
// at its context: under 10 ms of fast-forward at the 123 Minstr/s that
// checkpoint builds reach on a 2-vCPU Xeon.
const buildChunk = 1 << 20

// DefaultBudgetBytes bounds the store's resident checkpoints when a
// caller passes 0 to NewStore. A checkpoint is charged emu.PageSize
// (4 KiB) per resident memory page plus its 512-byte register file, so
// the default holds thousands of checkpoints for the mini-ISA kernels.
const DefaultBudgetBytes = int64(256 << 20)

// Outcome classifies how a StateAt request was served.
type Outcome string

const (
	// OutcomeFresh: offset 0 — a fresh CPU, no store involvement.
	OutcomeFresh Outcome = "fresh"
	// OutcomeHit: cloned from a resident checkpoint at the exact offset.
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

// entry is one resident checkpoint: the snapshot its build produced.
// Nothing writes it after the build; StateAt hands out clones, and a
// chained build restores from a copy.
type entry struct {
	workload string
	offset   uint64
	snap     *emu.Snapshot
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

// Store is an in-memory, byte-budgeted checkpoint store keyed by
// (workload, instruction offset). StateAt and Ensure are the only ways
// in: every resident checkpoint is one of their requests built. Safe for
// concurrent use. The zero value is not usable; construct with NewStore.
// A nil *Store is valid and behaves as an always-cold store with no
// retention.
type Store struct {
	// cache holds checkpoints at their charged size, and its Do coalesces
	// concurrent builds of one offset.
	cache *lru.Cache[*entry]

	hits      atomic.Int64
	chained   atomic.Int64
	cold      atomic.Int64
	coalesced atomic.Int64
}

// NewStore returns a store retaining up to budget bytes of checkpoints
// (0 selects DefaultBudgetBytes).
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
// clone the caller owns and may write, or hand to emu.NewFromSnapshot,
// which takes it over without a further copy: the resident checkpoint
// never leaves the store. Service order: exact resident checkpoint, else
// restore the nearest earlier checkpoint and emulate the gap, else
// emulate from the program entry; either build deposits a checkpoint at
// offset for next time. Concurrent requests for the same (workload,
// offset) coalesce onto one build. A workload that halts before offset
// yields *HaltedEarlyError.
func (s *Store) StateAt(workload string, prog *program.Program, offset uint64) (*emu.Snapshot, Outcome, error) {
	return s.state(context.TODO(), workload, prog, offset, true)
}

// Ensure makes the checkpoint at offset resident exactly as StateAt
// would, with the same outcome, counters and errors, but copies nothing
// out. A sampled run calls it to build its checkpoint chain before any
// interval asks for its state. A build whose ctx ends stops within one
// buildChunk of emulation and returns ctx.Err(); nothing is stored.
func (s *Store) Ensure(ctx context.Context, workload string, prog *program.Program, offset uint64) (Outcome, error) {
	_, outcome, err := s.state(ctx, workload, prog, offset, false)
	return outcome, err
}

// state serves StateAt and Ensure. The snapshot it returns is private to
// the caller when private is set; otherwise it may be the resident
// checkpoint itself and must not be written.
func (s *Store) state(ctx context.Context, workload string, prog *program.Program, offset uint64, private bool) (*emu.Snapshot, Outcome, error) {
	if offset == 0 {
		return emu.New(prog).Detach(), OutcomeFresh, nil
	}
	if s == nil {
		return buildFrom(ctx, nil, workload, prog, offset)
	}
	outcome := OutcomeCoalesced
	e, how, err := s.cache.Do(ctx, storeKey(workload, offset), func(ctx context.Context) (*entry, int64, error) {
		snap, o, err := buildFrom(ctx, s.base(workload, offset), workload, prog, offset)
		outcome = o
		if err != nil {
			return nil, 0, err
		}
		charge := int64(snap.Mem.Pages())*emu.PageSize + int64(len(snap.Regs))*8
		return &entry{workload: workload, offset: offset, snap: snap}, charge, nil
	})
	if err != nil {
		return nil, outcome, err
	}
	switch {
	case how == lru.Hit:
		outcome = OutcomeHit
		s.hits.Add(1)
	case how == lru.Coalesced:
		s.coalesced.Add(1)
	case outcome == OutcomeChained:
		s.chained.Add(1)
	default:
		s.cold.Add(1)
	}
	if !private {
		return e.snap, outcome, nil
	}
	return e.snap.Clone(), outcome, nil
}

// base returns the resident snapshot of workload's nearest checkpoint
// below offset, or nil when there is none. The caller only reads it. It
// scans every resident checkpoint, which costs little next to the
// emulation of at least a stride that every build runs.
func (s *Store) base(workload string, offset uint64) *emu.Snapshot {
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
	return best.snap
}

// buildFrom emulates workload forward to offset, starting from a clone of
// base (nil: the program entry), which it never writes. It returns a
// snapshot at exactly offset that owns the throwaway emulator's memory,
// so a build copies memory once, for the clone of base. It emulates in
// chunks of buildChunk instructions and gives up with ctx.Err() between
// two of them.
func buildFrom(ctx context.Context, base *emu.Snapshot, workload string, prog *program.Program, offset uint64) (*emu.Snapshot, Outcome, error) {
	var cpu *emu.CPU
	outcome := OutcomeCold
	if base != nil && base.Seq <= offset {
		cpu = emu.NewFromSnapshot(prog, base.Clone())
		outcome = OutcomeChained
	} else {
		cpu = emu.New(prog)
	}
	for cpu.Executed() < offset {
		if err := ctx.Err(); err != nil {
			return nil, outcome, err
		}
		if n := min(offset-cpu.Executed(), buildChunk); cpu.Run(n) < n {
			break // halted
		}
	}
	if cpu.Executed() != offset {
		return nil, outcome, &HaltedEarlyError{Workload: workload, Want: offset, Got: cpu.Executed()}
	}
	return cpu.Detach(), outcome, nil
}
