package metrics

import (
	"encoding/json"
	"strings"
	"testing"
)

// parentKeys are the 34 counter keys timelines were written with before
// the vector carried the RunStats-only and energy counts, in their order.
var parentKeys = []string{
	"instructions", "cycles", "loads", "stores",
	"vp_eligible", "vp_predicted", "vp_correct",
	"value_flushes", "branch_flushes", "order_flushes", "value_replays",
	"paq_allocated", "paq_dropped", "paq_full",
	"lscd_inserts", "lscd_filtered",
	"probes", "probe_hits", "prefetches",
	"apt_lookups", "apt_hits", "apt_allocations", "apt_conf_resets", "apt_tag_aliases",
	"fpc_bumps", "fpc_saturations",
	"l1d_accesses", "l1d_misses", "l2_accesses", "l2_misses",
	"l3_accesses", "l3_misses", "tlb_accesses", "tlb_misses",
}

func TestCounterNames(t *testing.T) {
	seen := map[string]Counter{}
	for k := Counter(0); int(k) < NumCounters; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("counter %d has no name", int(k))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share the name %q", int(prev), int(k), name)
		}
		seen[name] = k
	}
	for i, name := range parentKeys {
		if got := Counter(i).String(); got != name {
			t.Errorf("counter %d is %q, want %q: the first %d keys keep their order", i, got, name, len(parentKeys))
		}
	}
}

func TestCountersJSONRoundTrip(t *testing.T) {
	var v Counters
	for i := range v {
		v[i] = uint64(i)*1_000_003 + 7
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back Counters
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if back[i] != v[i] {
			t.Errorf("%s: round trip gave %d, want %d", Counter(i), back[i], v[i])
		}
	}
	if !strings.HasPrefix(string(data), `{"instructions":7,"cycles":1000010,`) {
		t.Errorf("encoding does not start with the instruction and cycle counts: %.60s", data)
	}
}

func TestCountersDecodeParentObject(t *testing.T) {
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range parentKeys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"` + name + `":` + string(rune('1'+i%9)))
	}
	b.WriteByte('}')
	var v Counters
	if err := json.Unmarshal([]byte(b.String()), &v); err != nil {
		t.Fatalf("decode a %d-key object: %v", len(parentKeys), err)
	}
	for i := range v {
		want := uint64(0)
		if i < len(parentKeys) {
			want = uint64(1 + i%9)
		}
		if v[i] != want {
			t.Errorf("%s = %d, want %d", Counter(i), v[i], want)
		}
	}
}

func TestCountersDecodeRejectsUnknownKey(t *testing.T) {
	var v Counters
	if err := json.Unmarshal([]byte(`{"instructions":1,"warp_drive":2}`), &v); err == nil {
		t.Error("unknown counter name accepted")
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Instructions: 300, Cycles: 750, L1DMisses: 12, DVTAGELookups: 1}
	b := Counters{Instructions: 400, Cycles: 1000, L1DMisses: 16, PRFReads: 9}
	want := Counters{Instructions: 700, Cycles: 1750, L1DMisses: 28, DVTAGELookups: 1, PRFReads: 9}
	if got := a.Add(b); got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got := want.Sub(b); got != a {
		t.Errorf("Sub = %v, want %v", got, a)
	}
}

// RunStats copies every count and derives the miss rates the caches
// report, guarding empty levels.
func TestCountersRunStats(t *testing.T) {
	v := Counters{Instructions: 2500, Cycles: 1000, L1DAccesses: 200, L1DMisses: 5,
		TLBAccesses: 400, TLBMisses: 3, TournamentDLVP: 4, TournamentVTAGE: 6, VPPredicted: 10}
	s := v.RunStats("mcf", "tournament")
	if s.Workload != "mcf" || s.Scheme != "tournament" || s.IPC() != 2.5 {
		t.Errorf("labels/IPC = %q/%q/%v", s.Workload, s.Scheme, s.IPC())
	}
	if s.L1DMissRate != 2.5 || s.TLBMissRate != 0.75 || s.L2MissRate != 0 {
		t.Errorf("L1D/L2/TLB miss rates = %v/%v/%v, want 2.5/0/0.75", s.L1DMissRate, s.L2MissRate, s.TLBMissRate)
	}
	if s.TournamentDLVP+s.TournamentVTAGE != s.VP.Predicted {
		t.Errorf("tournament split %d+%d != predicted %d", s.TournamentDLVP, s.TournamentVTAGE, s.VP.Predicted)
	}
}
