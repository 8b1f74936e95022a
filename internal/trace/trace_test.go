package trace

import (
	"reflect"
	"testing"
	"unsafe"

	"dlvp/internal/isa"
)

func load(pc, addr, val uint64) Rec {
	r := Rec{PC: pc, Op: isa.LDR, Flags: isa.LDR.Flags(), Addr: addr, Bytes: 8, NDst: 1}
	r.Vals[0] = val
	return r
}

func store(pc, addr, val uint64) Rec {
	r := Rec{PC: pc, Op: isa.STR, Flags: isa.STR.Flags(), Addr: addr, Bytes: 8}
	r.Vals[0] = val
	return r
}

func TestSliceReader(t *testing.T) {
	recs := []Rec{load(0x400000, 0x1000, 1), store(0x400004, 0x1000, 2)}
	sr := &SliceReader{Recs: recs}
	got := Collect(sr, 0)
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("collect = %+v", got)
	}
	var rec Rec
	if sr.Next(&rec) {
		t.Error("exhausted reader must return false")
	}
}

func TestCollectMax(t *testing.T) {
	recs := make([]Rec, 10)
	for i := range recs {
		recs[i] = load(0x400000, 0x1000, 0)
	}
	got := Collect(&SliceReader{Recs: recs}, 3)
	if len(got) != 3 {
		t.Errorf("collect max = %d, want 3", len(got))
	}
}

func TestConflictCommitted(t *testing.T) {
	// Load A, far-away store to A (committed), load A again => committed conflict.
	p := NewConflictProfiler(100)
	recs := []Rec{
		load(0x400000, 0x1000, 5),
		store(0x400100, 0x1000, 6),
	}
	// Pad distance beyond the in-flight window.
	for i := 0; i < 200; i++ {
		recs = append(recs, Rec{PC: 0x400200, Op: isa.ADD})
	}
	recs = append(recs, load(0x400000, 0x1000, 6))
	for i := range recs {
		p.Observe(&recs[i])
	}
	s := p.Stats()
	if p.Conflicts != 1 || p.InFlight != 0 {
		t.Fatalf("conflicts=%d inflight=%d, want 1/0", p.Conflicts, p.InFlight)
	}
	if s.CommittedPct != 50 { // 1 of 2 dynamic loads
		t.Errorf("committed pct = %v, want 50", s.CommittedPct)
	}
	if p.ValueChanged != 1 {
		t.Errorf("value changed = %d, want 1", p.ValueChanged)
	}
}

func TestConflictInFlight(t *testing.T) {
	// Store immediately before the second load => in flight.
	p := NewConflictProfiler(100)
	recs := []Rec{
		load(0x400000, 0x1000, 5),
		store(0x400100, 0x1000, 6),
		load(0x400000, 0x1000, 6),
	}
	for i := range recs {
		p.Observe(&recs[i])
	}
	if p.Conflicts != 1 || p.InFlight != 1 {
		t.Fatalf("conflicts=%d inflight=%d, want 1/1", p.Conflicts, p.InFlight)
	}
}

func TestConflictRequiresSameAddress(t *testing.T) {
	// Second instance reads a different address: no conflict.
	p := NewConflictProfiler(100)
	recs := []Rec{
		load(0x400000, 0x1000, 5),
		store(0x400100, 0x1000, 6),
		load(0x400000, 0x2000, 7),
	}
	for i := range recs {
		p.Observe(&recs[i])
	}
	if p.Conflicts != 0 {
		t.Fatalf("conflicts = %d, want 0", p.Conflicts)
	}
}

func TestConflictStoreBeforeFirstInstance(t *testing.T) {
	// Store precedes the first load instance: not "since the prior instance".
	p := NewConflictProfiler(100)
	recs := []Rec{
		store(0x400100, 0x1000, 6),
		load(0x400000, 0x1000, 6),
		load(0x400000, 0x1000, 6),
	}
	for i := range recs {
		p.Observe(&recs[i])
	}
	if p.Conflicts != 0 {
		t.Fatalf("conflicts = %d, want 0", p.Conflicts)
	}
}

func TestConflictSubWordStore(t *testing.T) {
	// A byte store inside the loaded word must register as a conflict.
	p := NewConflictProfiler(100)
	r1 := load(0x400000, 0x1000, 5)
	st := Rec{PC: 0x400100, Op: isa.STR, Flags: isa.STR.Flags(), Addr: 0x1003, Bytes: 1}
	r2 := load(0x400000, 0x1000, 99)
	for _, r := range []Rec{r1, st, r2} {
		p.Observe(&r)
	}
	if p.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1 (sub-word store)", p.Conflicts)
	}
}

func TestConflictSilentStoreCounted(t *testing.T) {
	// A store writing the same value is a conflict per Figure 1's definition
	// (a store occurred), but ValueChanged stays zero.
	p := NewConflictProfiler(100)
	recs := []Rec{
		load(0x400000, 0x1000, 5),
		store(0x400100, 0x1000, 5),
		load(0x400000, 0x1000, 5),
	}
	for i := range recs {
		p.Observe(&recs[i])
	}
	if p.Conflicts != 1 || p.ValueChanged != 0 {
		t.Fatalf("conflicts=%d changed=%d, want 1/0", p.Conflicts, p.ValueChanged)
	}
}

func TestConflictStatsEmpty(t *testing.T) {
	s := NewConflictProfiler(100).Stats()
	if s.Loads != 0 || s.CommittedPct != 0 || s.InFlightPct != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestRepeatBuckets(t *testing.T) {
	cases := map[uint32]int{1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 63: 5, 64: 6, 128: 7, 255: 7, 256: 8, 10000: 8}
	for c, want := range cases {
		if got := bucketIndex(c); got != want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c, got, want)
		}
	}
}

func TestRepeatProfilerAddressVsValue(t *testing.T) {
	// One static load: 8 instances, all same address, but 2 distinct values
	// (4 occurrences each). Address repeats 8x; values repeat 4x.
	p := NewRepeatProfiler()
	for i := 0; i < 8; i++ {
		r := load(0x400000, 0x1000, uint64(i%2))
		p.Observe(&r)
	}
	s := p.Stats()
	if s.Loads != 8 {
		t.Fatalf("loads = %d", s.Loads)
	}
	// All loads' address occurs 8 times -> bucket index 3 (>=8).
	if s.AddrPct[3] != 100 {
		t.Errorf("addr bucket 8 pct = %v, want 100 (%v)", s.AddrPct[3], s.AddrPct)
	}
	// All loads' value occurs 4 times -> bucket index 2 (>=4).
	if s.ValuePct[2] != 100 {
		t.Errorf("value bucket 4 pct = %v, want 100 (%v)", s.ValuePct[2], s.ValuePct)
	}
	// Cumulative: >=4 addresses is also 100%.
	if s.AddrCumPct[2] != 100 || s.ValueCumPct[3] != 0 {
		t.Errorf("cumulative wrong: addr>=4 %v, value>=8 %v", s.AddrCumPct[2], s.ValueCumPct[3])
	}
}

func TestRepeatProfilerPerStaticLoad(t *testing.T) {
	// Two static loads with the same address are counted separately.
	p := NewRepeatProfiler()
	for i := 0; i < 4; i++ {
		r := load(0x400000, 0x1000, 7)
		p.Observe(&r)
		r2 := load(0x400008, 0x1000, 7)
		p.Observe(&r2)
	}
	s := p.Stats()
	// Each static load saw the address 4 times: bucket >=4.
	if s.AddrPct[2] != 100 {
		t.Errorf("addr pct = %v", s.AddrPct)
	}
}

func TestRepeatIgnoresNonLoads(t *testing.T) {
	p := NewRepeatProfiler()
	r := store(0x400000, 0x1000, 1)
	p.Observe(&r)
	a := Rec{Op: isa.ADD}
	p.Observe(&a)
	if s := p.Stats(); s.Loads != 0 {
		t.Errorf("non-loads counted: %d", s.Loads)
	}
}

func TestMeanRepeatStats(t *testing.T) {
	a := RepeatStats{
		Loads:       10,
		AddrPct:     pctVec(100, 0),
		ValuePct:    pctVec(0, 100),
		AddrCumPct:  pctVec(100, 0),
		ValueCumPct: pctVec(0, 100),
	}
	b := RepeatStats{
		Loads:       30,
		AddrPct:     pctVec(0, 100),
		ValuePct:    pctVec(100, 0),
		AddrCumPct:  pctVec(0, 100),
		ValueCumPct: pctVec(100, 0),
	}
	m := MeanRepeatStats([]RepeatStats{a, b})
	if m.Loads != 40 {
		t.Errorf("loads = %d", m.Loads)
	}
	if m.AddrPct[0] != 50 || m.AddrPct[1] != 50 {
		t.Errorf("mean addr pct = %v", m.AddrPct)
	}
	if len(MeanRepeatStats(nil).AddrPct) != len(RepeatBuckets) {
		t.Error("empty mean must still be sized")
	}
}

func pctVec(first, second float64) []float64 {
	v := make([]float64, len(RepeatBuckets))
	v[0], v[1] = first, second
	return v
}

func TestRecHelpers(t *testing.T) {
	l := load(1, 2, 42)
	if !l.IsLoad() || l.IsStore() || l.Value() != 42 {
		t.Error("load helpers wrong")
	}
	s := store(1, 2, 3)
	if s.IsLoad() || !s.IsStore() {
		t.Error("store helpers wrong")
	}
}

// TestRecCompact pins the record's footprint: the trace cache buffers one
// per instruction, so its size sets how many streams a byte budget holds,
// and without pointers a buffered stream costs the GC nothing to scan.
func TestRecCompact(t *testing.T) {
	if got := unsafe.Sizeof(Rec{}); got > 64 {
		t.Errorf("trace.Rec is %d bytes, want at most 64", got)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint32, reflect.Uint64:
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	if !pointerFree(reflect.TypeOf(Rec{})) {
		t.Error("trace.Rec holds a pointer-bearing field")
	}
}

// A wide record's extra destinations come from its stream's table; a
// reader that hands the record on without that table fails loudly instead
// of reporting zeros.
func TestOverflowMissingEntryPanics(t *testing.T) {
	r := Rec{Op: isa.LDM, Flags: isa.LDM.Flags(), NDst: 3}
	dst := []isa.Reg{4, 5, 6}
	vals := []uint64{40, 50, 60}
	var ovf Overflow
	ovf.Add(&r, dst, vals)
	if got := r.DestReg(2, &ovf); got != 6 {
		t.Errorf("DestReg(2) = %v, want x6", got)
	}
	if got := r.DestValue(2, &ovf); got != 60 {
		t.Errorf("DestValue(2) = %d, want 60", got)
	}
	for name, table := range map[string]*Overflow{"nil table": nil, "empty table": {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: DestValue of a wide record returned instead of panicking", name)
				}
			}()
			r.DestValue(2, table)
		}()
	}
}
