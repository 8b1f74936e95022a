package metrics

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"dlvp/internal/predictor"
)

// Counter indexes Counters. Every count the core keeps is one constant
// here plus its JSON name in counterNames; the timeline, sample windows,
// sampled merges and RunStats all carry it from there.
type Counter int

const (
	Instructions Counter = iota
	Cycles
	Loads
	Stores
	VPEligible // value prediction, accounted at commit
	VPPredicted
	VPCorrect
	ValueFlushes // recovery events
	BranchFlushes
	OrderFlushes
	ValueReplays
	PAQAllocated // Predicted Address Queue pressure
	PAQDropped
	PAQFull
	LSCDInserts // LSCD (store-conflict blacklist) activity
	LSCDFiltered
	Probes // L1D probe traffic (DLVP steps 3-5)
	ProbeHits
	Prefetches // DLVP probe-miss prefetches only
	APTLookups // PAP Address Prediction Table
	APTHits
	APTAllocations
	APTConfResets // hitting entries whose address disagreed with the load
	APTTagAliases // entries reallocated between lookup and train
	FPCBumps      // FPC confidence transitions (Challenge #2 warm-up)
	FPCSaturations
	L1DAccesses // memory system
	L1DMisses
	L2Accesses
	L2Misses
	L3Accesses
	L3Misses
	TLBAccesses
	TLBMisses
	StoreFwdPartialStalls // pipeline drop reasons and tournament attribution:
	GroupSlotMissed       // see the RunStats fields of the same names
	VPDropLate
	VPDropBudget
	VPDropPVTFull
	WayMispredicts
	TournamentDLVP
	TournamentVTAGE
	PRFReads // structure accesses the energy model prices
	PRFWrites
	PVTWrites
	L1IAccesses
	CAPLookups
	VTAGELookups
	DVTAGELookups

	// NumCounters is the vector length.
	NumCounters = int(DVTAGELookups) + 1
)

// counterNames are the JSON keys, indexed by Counter.
var counterNames = [NumCounters]string{
	Instructions: "instructions", Cycles: "cycles", Loads: "loads", Stores: "stores",
	VPEligible: "vp_eligible", VPPredicted: "vp_predicted", VPCorrect: "vp_correct",
	ValueFlushes: "value_flushes", BranchFlushes: "branch_flushes",
	OrderFlushes: "order_flushes", ValueReplays: "value_replays",
	PAQAllocated: "paq_allocated", PAQDropped: "paq_dropped", PAQFull: "paq_full",
	LSCDInserts: "lscd_inserts", LSCDFiltered: "lscd_filtered",
	Probes: "probes", ProbeHits: "probe_hits", Prefetches: "prefetches",
	APTLookups: "apt_lookups", APTHits: "apt_hits", APTAllocations: "apt_allocations",
	APTConfResets: "apt_conf_resets", APTTagAliases: "apt_tag_aliases",
	FPCBumps: "fpc_bumps", FPCSaturations: "fpc_saturations",
	L1DAccesses: "l1d_accesses", L1DMisses: "l1d_misses",
	L2Accesses: "l2_accesses", L2Misses: "l2_misses",
	L3Accesses: "l3_accesses", L3Misses: "l3_misses",
	TLBAccesses: "tlb_accesses", TLBMisses: "tlb_misses",
	StoreFwdPartialStalls: "store_fwd_partial_stalls", GroupSlotMissed: "group_slot_missed",
	VPDropLate: "vp_drop_late", VPDropBudget: "vp_drop_budget", VPDropPVTFull: "vp_drop_pvt_full",
	WayMispredicts: "way_mispredicts", TournamentDLVP: "tournament_dlvp", TournamentVTAGE: "tournament_vtage",
	PRFReads: "prf_reads", PRFWrites: "prf_writes", PVTWrites: "pvt_writes",
	L1IAccesses: "l1i_accesses", CAPLookups: "cap_lookups",
	VTAGELookups: "vtage_lookups", DVTAGELookups: "dvtage_lookups",
}

// String returns the counter's JSON name.
func (k Counter) String() string { return counterNames[k] }

// Counters is one value per Counter. The core keeps a cumulative vector;
// Sub turns two snapshots into an interval delta and Add sums deltas, so
// timeline intervals, sample windows and sampled merges are all the same
// arithmetic. Every entry is a count, never a rate.
type Counters [NumCounters]uint64

// Sub returns the element-wise delta v - prev.
func (v Counters) Sub(prev Counters) Counters {
	for i := range v {
		v[i] -= prev[i]
	}
	return v
}

// Add returns the element-wise sum v + other.
func (v Counters) Add(other Counters) Counters {
	for i := range v {
		v[i] += other[i]
	}
	return v
}

// MarshalJSON renders every counter as {"name": count, ...} in Counter
// order, zeros included.
func (v Counters) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 24*NumCounters)
	buf = append(buf, '{')
	for i, n := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, counterNames[i]...)
		buf = append(buf, '"', ':')
		buf = strconv.AppendUint(buf, n, 10)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON parses the object form written by MarshalJSON. Absent
// counters read 0, so objects written before a counter existed still
// decode; unknown names are rejected so version skew surfaces instead of
// silently dropping counts.
func (v *Counters) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*v = Counters{}
	for name, n := range m {
		i := slices.Index(counterNames[:], name)
		if i < 0 {
			return fmt.Errorf("metrics: unknown counter %q", name)
		}
		v[i] = n
	}
	return nil
}

// RunStats converts the vector into the summary of a run of workload under
// scheme: counts are copied and miss rates derived. CoreEnergy stays zero;
// the core prices it from the same vector.
func (v Counters) RunStats(workload, scheme string) RunStats {
	return RunStats{
		Workload:              workload,
		Scheme:                scheme,
		Cycles:                v[Cycles],
		Instructions:          v[Instructions],
		Loads:                 v[Loads],
		Stores:                v[Stores],
		VP:                    predictor.Stats{Eligible: v[VPEligible], Predicted: v[VPPredicted], Correct: v[VPCorrect]},
		ValueFlushes:          v[ValueFlushes],
		BranchFlushes:         v[BranchFlushes],
		OrderFlushes:          v[OrderFlushes],
		StoreFwdPartialStalls: v[StoreFwdPartialStalls],
		ValueReplays:          v[ValueReplays],
		Probes:                v[Probes],
		ProbeHits:             v[ProbeHits],
		PAQDropped:            v[PAQDropped],
		PAQAllocated:          v[PAQAllocated],
		PAQFull:               v[PAQFull],
		GroupSlotMissed:       v[GroupSlotMissed],
		VPDropLate:            v[VPDropLate],
		VPDropBudget:          v[VPDropBudget],
		VPDropPVTFull:         v[VPDropPVTFull],
		Prefetches:            v[Prefetches],
		LSCDFiltered:          v[LSCDFiltered],
		LSCDInserts:           v[LSCDInserts],
		WayMispredicts:        v[WayMispredicts],
		TournamentDLVP:        v[TournamentDLVP],
		TournamentVTAGE:       v[TournamentVTAGE],
		L1DMissRate:           missRate(v[L1DMisses], v[L1DAccesses]),
		L2MissRate:            missRate(v[L2Misses], v[L2Accesses]),
		TLBMissRate:           missRate(v[TLBMisses], v[TLBAccesses]),
		TLBMisses:             v[TLBMisses],
	}
}

// missRate returns misses/accesses in percent (0 without accesses), the
// formula the caches and the TLB use.
func missRate(misses, accesses uint64) float64 {
	if accesses == 0 {
		return 0
	}
	return 100 * float64(misses) / float64(accesses)
}
