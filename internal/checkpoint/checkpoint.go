package checkpoint

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"dlvp/internal/emu"
	"dlvp/internal/program"
	"dlvp/internal/trace"
)

// DefaultBudgetBytes bounds the store's resident encoded checkpoints
// when a caller passes 0 to NewStore. A checkpoint costs roughly
// 4 KiB per resident memory page plus ~0.5 KiB of header, so the
// default holds thousands of checkpoints for the mini-ISA kernels.
const DefaultBudgetBytes = int64(256 << 20)

// DefaultCaptureStride is the checkpoint spacing used when a full
// emulation pass is captured opportunistically (Capture with stride 0):
// one checkpoint per million dynamic instructions.
const DefaultCaptureStride = uint64(1_000_000)

// Outcome classifies how a StateAt/CPUAt request was served.
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
	key      string
	workload string
	offset   uint64
	enc      []byte
	sum      [sha256.Size]byte

	prev, next *entry // intrusive LRU (head = most recent)
}

// flight is one in-progress checkpoint build; duplicate requests wait on
// done instead of emulating the same prefix twice.
type flight struct {
	done chan struct{}
	snap *emu.Snapshot // built state (readers must Clone)
	err  error
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
	Captured      int64 `json:"captured"` // checkpoints deposited by Capture readers
	Evictions     int64 `json:"evictions"`
}

// Store is an in-memory, byte-budgeted, content-addressed checkpoint
// store keyed by (workload, instruction offset). Safe for concurrent
// use. The zero value is not usable; construct with NewStore. A nil
// *Store is valid and behaves as an always-cold store with no retention.
type Store struct {
	budget int64

	mu       sync.Mutex
	entries  map[string]*entry
	index    map[string][]uint64 // workload -> resident offsets, ascending
	flights  map[string]*flight
	lruHead  *entry
	lruTail  *entry
	resident int64

	hits      int64
	chained   int64
	cold      int64
	coalesced int64
	captured  int64
	evictions int64
}

// NewStore returns a store retaining up to budget bytes of encoded
// checkpoints (0 selects DefaultBudgetBytes).
func NewStore(budget int64) *Store {
	if budget <= 0 {
		budget = DefaultBudgetBytes
	}
	return &Store{
		budget:  budget,
		entries: make(map[string]*entry),
		index:   make(map[string][]uint64),
		flights: make(map[string]*flight),
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		BudgetBytes:   s.budget,
		ResidentBytes: s.resident,
		Entries:       len(s.entries),
		Hits:          s.hits,
		Chained:       s.chained,
		Cold:          s.cold,
		Coalesced:     s.coalesced,
		Captured:      s.captured,
		Evictions:     s.evictions,
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
	s.mu.Lock()
	if snap, err := s.decodeLocked(key); err == nil && snap != nil {
		s.hits++
		s.mu.Unlock()
		return snap, OutcomeHit, nil
	}
	if fl, ok := s.flights[key]; ok {
		s.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, OutcomeCoalesced, fl.err
		}
		s.mu.Lock()
		s.coalesced++
		s.mu.Unlock()
		return fl.snap.Clone(), OutcomeCoalesced, nil
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl

	// Base for the chain: the nearest resident checkpoint below offset.
	var base *emu.Snapshot
	offs := s.index[workload]
	i := sort.Search(len(offs), func(i int) bool { return offs[i] >= offset })
	for i > 0 {
		i--
		snap, err := s.decodeLocked(storeKey(workload, offs[i]))
		if err == nil && snap != nil {
			base = snap
			break
		}
	}
	s.mu.Unlock()

	snap, outcome, err := buildFrom(base, workload, prog, offset)
	if err == nil {
		s.put(workload, offset, snap)
		s.mu.Lock()
		if outcome == OutcomeChained {
			s.chained++
		} else {
			s.cold++
		}
		s.mu.Unlock()
	}
	fl.snap, fl.err = snap, err
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(fl.done)
	if err != nil {
		return nil, outcome, err
	}
	return snap.Clone(), outcome, nil
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

// CPUAt returns a CPU for workload restored to exactly offset dynamic
// instructions (see StateAt for the service order). The CPU is
// independent of the store; its MaxInstrs is unset.
func (s *Store) CPUAt(workload string, prog *program.Program, offset uint64) (*emu.CPU, Outcome, error) {
	snap, outcome, err := s.StateAt(workload, prog, offset)
	if err != nil {
		return nil, outcome, err
	}
	return emu.NewFromSnapshot(prog, snap), outcome, nil
}

// decodeLocked decodes the resident entry for key, verifying its content
// hash. Returns (nil, nil) when the key is not resident. A hash or codec
// mismatch drops the entry (corruption must not be served) and reports
// the error. Caller holds s.mu.
func (s *Store) decodeLocked(key string) (*emu.Snapshot, error) {
	e, ok := s.entries[key]
	if !ok {
		return nil, nil
	}
	if sha256.Sum256(e.enc) != e.sum {
		s.removeLocked(e)
		return nil, fmt.Errorf("checkpoint: content hash mismatch for %q@%d", e.workload, e.offset)
	}
	snap, err := Decode(e.enc)
	if err != nil {
		s.removeLocked(e)
		return nil, err
	}
	s.lruTouch(e)
	return snap, nil
}

// put encodes and inserts a checkpoint, evicting LRU entries to respect
// the byte budget. An encoding larger than the whole budget is not
// retained.
func (s *Store) put(workload string, offset uint64, snap *emu.Snapshot) {
	if s == nil || offset == 0 {
		return
	}
	enc := Encode(snap)
	if int64(len(enc)) > s.budget {
		return
	}
	key := storeKey(workload, offset)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return
	}
	e := &entry{key: key, workload: workload, offset: offset, enc: enc, sum: sha256.Sum256(enc)}
	s.entries[key] = e
	s.indexInsert(workload, offset)
	s.resident += int64(len(enc))
	s.lruPushFront(e)
	for s.lruTail != nil && s.resident > s.budget {
		victim := s.lruTail
		s.removeLocked(victim)
		s.evictions++
	}
}

// removeLocked drops e from the map, index, LRU and byte accounting.
func (s *Store) removeLocked(e *entry) {
	delete(s.entries, e.key)
	s.indexRemove(e.workload, e.offset)
	s.resident -= int64(len(e.enc))
	s.lruRemove(e)
}

func (s *Store) indexInsert(workload string, offset uint64) {
	offs := s.index[workload]
	i := sort.Search(len(offs), func(i int) bool { return offs[i] >= offset })
	if i < len(offs) && offs[i] == offset {
		return
	}
	offs = append(offs, 0)
	copy(offs[i+1:], offs[i:])
	offs[i] = offset
	s.index[workload] = offs
}

func (s *Store) indexRemove(workload string, offset uint64) {
	offs := s.index[workload]
	i := sort.Search(len(offs), func(i int) bool { return offs[i] >= offset })
	if i < len(offs) && offs[i] == offset {
		s.index[workload] = append(offs[:i], offs[i+1:]...)
	}
}

// --- intrusive LRU (s.mu held) ----------------------------------------------

func (s *Store) lruPushFront(e *entry) {
	e.prev, e.next = nil, s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = e
	}
	s.lruHead = e
	if s.lruTail == nil {
		s.lruTail = e
	}
}

func (s *Store) lruTouch(e *entry) {
	if s.lruHead == e {
		return
	}
	s.lruRemove(e)
	s.lruPushFront(e)
}

func (s *Store) lruRemove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.lruHead == e {
		s.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.lruTail == e {
		s.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

// --- opportunistic capture ---------------------------------------------------

// Capture wraps cpu (a fresh, entry-positioned emulator owned by the
// caller) so that checkpoints are deposited into the store every stride
// executed instructions as the stream is consumed (0 selects
// DefaultCaptureStride). The runner wraps trace-cache capture leads with
// this, so checkpoint capture rides the single-flight emulation the
// trace cache already guarantees — a monolithic run leaves behind the
// checkpoints a later sampled run restores. A nil store returns cpu
// unchanged.
func (s *Store) Capture(cpu *emu.CPU, workload string, stride uint64) trace.Reader {
	if s == nil {
		return cpu
	}
	if stride == 0 {
		stride = DefaultCaptureStride
	}
	next := (cpu.Executed()/stride + 1) * stride
	return &captureReader{store: s, cpu: cpu, workload: workload, stride: stride, next: next}
}

type captureReader struct {
	store    *Store
	cpu      *emu.CPU
	workload string
	stride   uint64
	next     uint64
}

// Overflow passes the emulator's table through (see trace.OverflowOf).
func (r *captureReader) Overflow() *trace.Overflow { return r.cpu.Overflow() }

func (r *captureReader) Next(rec *trace.Rec) bool {
	if !r.cpu.Next(rec) {
		return false
	}
	if r.cpu.Executed() == r.next {
		r.store.put(r.workload, r.next, r.cpu.Snapshot())
		r.store.mu.Lock()
		r.store.captured++
		r.store.mu.Unlock()
		r.next += r.stride
	}
	return true
}
