// Package timeline is the simulation flight recorder: an interval
// time-series of predictor/pipeline state sampled by the uarch core every
// N committed instructions. A run that used to emit one aggregate
// metrics.RunStats at the end becomes an inspectable sequence of
// per-interval deltas — IPC, value-prediction coverage/accuracy, PAP APT
// hit/conflict/alias rates, FPC confidence transitions, PAQ pressure,
// LSCD blacklisting bursts, probe and cache hit rates — so phase
// behaviour (PAP confidence warm-up, store-conflict misprediction bursts)
// can be seen, streamed live, diffed between runs, and reconciled against
// the final aggregate.
//
// Memory is O(capacity) for any run length: when the sample ring fills,
// adjacent samples are merged pairwise (deltas summed, high-water marks
// maxed), halving the resolution instead of dropping data. Unlike plain
// reservoir sampling this downsampling preserves delta sums exactly, so
// the sum of interval deltas always reconciles with the run's final
// RunStats — a property the tests enforce.
package timeline

import (
	"io"
	"strconv"
	"sync"

	"dlvp/internal/metrics"
	"dlvp/internal/obs"
)

// DefaultIntervalInstrs is the sampling interval when a caller passes 0:
// one sample per 100k committed instructions.
const DefaultIntervalInstrs = 100_000

// DefaultCapacity is the sample-ring bound when a caller passes 0. At 512
// samples of ~450 bytes a recorder holds at most about 230 KB regardless
// of run length; a short run holds only the samples it took.
const DefaultCapacity = 512

// Sample is one interval of the timeline: the delta of every counter over
// [StartInstr, EndInstr) committed instructions, plus interval-local
// high-water marks.
type Sample struct {
	// Index is the ordinal of the first base interval merged into this
	// sample; Intervals is how many base intervals it spans (1 until the
	// ring filled and downsampling merged neighbours).
	Index     int `json:"index"`
	Intervals int `json:"intervals"`

	StartInstr uint64 `json:"start_instr"`
	EndInstr   uint64 `json:"end_instr"`
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`

	// PAQPeak is the high-water Predicted Address Queue occupancy seen
	// during the interval (max over merged intervals).
	PAQPeak int `json:"paq_peak"`

	Delta metrics.Counters `json:"delta"`
}

// rate returns 100*num/den over the interval's deltas, or 0 when den is
// zero.
func (s *Sample) rate(num, den metrics.Counter) float64 {
	if s.Delta[den] == 0 {
		return 0
	}
	return 100 * float64(s.Delta[num]) / float64(s.Delta[den])
}

// IPC returns the interval's instructions per cycle (0 for an empty
// interval).
func (s Sample) IPC() float64 {
	if s.Delta[metrics.Cycles] == 0 {
		return 0
	}
	return float64(s.Delta[metrics.Instructions]) / float64(s.Delta[metrics.Cycles])
}

// Coverage returns predicted/eligible in percent for the interval.
func (s Sample) Coverage() float64 { return s.rate(metrics.VPPredicted, metrics.VPEligible) }

// Accuracy returns correct/predicted in percent for the interval.
func (s Sample) Accuracy() float64 { return s.rate(metrics.VPCorrect, metrics.VPPredicted) }

// APTHitRate returns APT hits per lookup in percent.
func (s Sample) APTHitRate() float64 { return s.rate(metrics.APTHits, metrics.APTLookups) }

// APTConflictRate returns address-mismatch confidence resets per APT
// lookup in percent.
func (s Sample) APTConflictRate() float64 { return s.rate(metrics.APTConfResets, metrics.APTLookups) }

// APTAliasRate returns lookup-to-train tag aliases per APT lookup in
// percent.
func (s Sample) APTAliasRate() float64 { return s.rate(metrics.APTTagAliases, metrics.APTLookups) }

// ProbeHitRate returns L1D probe hits per probe in percent.
func (s Sample) ProbeHitRate() float64 { return s.rate(metrics.ProbeHits, metrics.Probes) }

// PAQDropRate returns dropped/allocated PAQ entries in percent.
func (s Sample) PAQDropRate() float64 { return s.rate(metrics.PAQDropped, metrics.PAQAllocated) }

// L1DMissRate returns the interval's L1D miss rate in percent.
func (s Sample) L1DMissRate() float64 { return s.rate(metrics.L1DMisses, metrics.L1DAccesses) }

// L2MissRate returns the interval's L2 miss rate in percent.
func (s Sample) L2MissRate() float64 { return s.rate(metrics.L2Misses, metrics.L2Accesses) }

// L3MissRate returns the interval's L3 miss rate in percent.
func (s Sample) L3MissRate() float64 { return s.rate(metrics.L3Misses, metrics.L3Accesses) }

// TLBMissRate returns the interval's TLB miss rate in percent.
func (s Sample) TLBMissRate() float64 { return s.rate(metrics.TLBMisses, metrics.TLBAccesses) }

// merge combines s with the immediately following sample next.
func (s Sample) merge(next Sample) Sample {
	out := s
	out.Intervals = s.Intervals + next.Intervals
	out.EndInstr = next.EndInstr
	out.EndCycle = next.EndCycle
	out.Delta = s.Delta.Add(next.Delta)
	if next.PAQPeak > out.PAQPeak {
		out.PAQPeak = next.PAQPeak
	}
	return out
}

// Timeline is the finished flight-recorder product of one run: metadata
// plus the ordered interval samples. It is the wire shape served by
// GET /v1/runs/{id}/timeline and cached content-addressed alongside the
// run's RunStats.
type Timeline struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	// IntervalInstrs is the base sampling interval; a sample's true span
	// is IntervalInstrs*Intervals (larger once downsampling merged
	// neighbours), except the final tail sample which may be shorter.
	IntervalInstrs uint64 `json:"interval_instrs"`
	Capacity       int    `json:"capacity"`
	// Merges counts downsampling passes; resolution is halved each time.
	Merges int `json:"merges,omitempty"`
	// Partial marks a timeline snapshotted from a still-running job.
	Partial bool     `json:"partial,omitempty"`
	Samples []Sample `json:"samples"`
}

// Totals sums every interval delta. Because downsampling merges rather
// than discards, the totals equal the run's cumulative counters exactly.
func (t *Timeline) Totals() metrics.Counters {
	var sum metrics.Counters
	for _, s := range t.Samples {
		sum = sum.Add(s.Delta)
	}
	return sum
}

// Recorder accumulates samples during a run. The producing core calls
// Sample at each interval boundary and Finish once at the end; concurrent
// readers (the SSE streaming endpoint) call Snapshot/Partial. Only the
// boundary path takes the mutex — the core's per-commit cost is one
// compare of its instruction count against the next boundary.
type Recorder struct {
	mu       sync.Mutex
	workload string
	scheme   string
	interval uint64
	capacity int
	samples  []Sample
	prev     metrics.Counters
	next     int // ordinal of the next base interval
	merges   int
	done     bool
	final    *Timeline
}

// NewRecorder returns a recorder for one run's labels, sampling every
// intervalInstrs committed instructions into a ring of at most capacity
// samples (0 selects DefaultIntervalInstrs / DefaultCapacity; capacity is
// clamped to >= 2 so downsampling always has a pair to merge).
func NewRecorder(intervalInstrs uint64, capacity int, workload, scheme string) *Recorder {
	if intervalInstrs == 0 {
		intervalInstrs = DefaultIntervalInstrs
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if capacity < 2 {
		capacity = 2
	}
	return &Recorder{workload: workload, scheme: scheme, interval: intervalInstrs, capacity: capacity}
}

// IntervalInstrs returns the base sampling interval.
func (r *Recorder) IntervalInstrs() uint64 { return r.interval }

// Sample records the interval ending at the cumulative snapshot cum,
// taken at the cycle in cum[metrics.Cycles]. paqPeak is the high-water PAQ
// occupancy since the previous boundary. The samples slice grows on
// append; once it reaches capacity, downsampling reuses its backing array
// and appends allocate no more.
func (r *Recorder) Sample(cum metrics.Counters, paqPeak int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appendLocked(cum, paqPeak)
}

func (r *Recorder) appendLocked(cum metrics.Counters, paqPeak int) {
	s := Sample{
		Index:      r.next,
		Intervals:  1,
		StartInstr: r.prev[metrics.Instructions],
		EndInstr:   cum[metrics.Instructions],
		StartCycle: r.prev[metrics.Cycles],
		EndCycle:   cum[metrics.Cycles],
		PAQPeak:    paqPeak,
		Delta:      cum.Sub(r.prev),
	}
	r.next++
	r.prev = cum
	r.samples = append(r.samples, s)
	if len(r.samples) >= r.capacity {
		r.downsampleLocked()
	}
}

// downsampleLocked merges adjacent sample pairs in place, halving the
// count (an odd trailing sample is kept as is). Delta sums are preserved
// exactly; only resolution is lost.
func (r *Recorder) downsampleLocked() {
	n := len(r.samples)
	out := 0
	for i := 0; i+1 < n; i += 2 {
		r.samples[out] = r.samples[i].merge(r.samples[i+1])
		out++
	}
	if n%2 == 1 {
		r.samples[out] = r.samples[n-1]
		out++
	}
	r.samples = r.samples[:out]
	r.merges++
}

// Finish records the tail interval (the committed instructions since the
// last boundary, if any) and freezes the recorder into a Timeline.
// Calling Finish more than once returns the same Timeline.
func (r *Recorder) Finish(cum metrics.Counters, paqPeak int) *Timeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return r.final
	}
	if cum != r.prev {
		r.appendLocked(cum, paqPeak)
	}
	r.done = true
	r.final = r.timelineLocked(false)
	return r.final
}

// timelineLocked copies the samples so far into a Timeline.
func (r *Recorder) timelineLocked(partial bool) *Timeline {
	return &Timeline{
		Workload:       r.workload,
		Scheme:         r.scheme,
		IntervalInstrs: r.interval,
		Capacity:       r.capacity,
		Merges:         r.merges,
		Partial:        partial,
		Samples:        append([]Sample(nil), r.samples...),
	}
}

// Snapshot returns a copy of the samples recorded so far and the merge
// generation. A stream that cached N delivered samples must resend from
// scratch when the generation advances (downsampling rewrote history).
func (r *Recorder) Snapshot() (samples []Sample, merges int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Sample(nil), r.samples...), r.merges
}

// Partial returns a Timeline view of a still-recording run (Partial set;
// the tail interval in progress is not included), labelled as Finish
// labels the finished one.
func (r *Recorder) Partial() *Timeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return r.final
	}
	return r.timelineLocked(true)
}

// --- diffing -----------------------------------------------------------------

// DiffRow is one aligned interval of a two-run comparison.
type DiffRow struct {
	Index      int     `json:"index"`
	StartInstr uint64  `json:"start_instr"`
	EndInstr   uint64  `json:"end_instr"`
	IPCA       float64 `json:"ipc_a"`
	IPCB       float64 `json:"ipc_b"`
	AccuracyA  float64 `json:"accuracy_a"`
	AccuracyB  float64 `json:"accuracy_b"`
	CoverageA  float64 `json:"coverage_a"`
	CoverageB  float64 `json:"coverage_b"`
	// AccuracyDelta is B−A in percentage points (negative = regression).
	AccuracyDelta float64 `json:"accuracy_delta"`
	IPCDelta      float64 `json:"ipc_delta"`
}

// Diff aligns two timelines interval-by-interval (by sample position over
// the shorter of the two) and returns comparison rows. Timelines sampled
// at different base intervals or downsampled to different generations
// still align positionally; the instruction ranges reported per row come
// from a so skew is visible rather than hidden.
func Diff(a, b *Timeline) []DiffRow {
	n := min(len(a.Samples), len(b.Samples))
	rows := make([]DiffRow, 0, n)
	for i := 0; i < n; i++ {
		sa, sb := a.Samples[i], b.Samples[i]
		rows = append(rows, DiffRow{
			Index:         sa.Index,
			StartInstr:    sa.StartInstr,
			EndInstr:      sa.EndInstr,
			IPCA:          sa.IPC(),
			IPCB:          sb.IPC(),
			AccuracyA:     sa.Accuracy(),
			AccuracyB:     sb.Accuracy(),
			CoverageA:     sa.Coverage(),
			CoverageB:     sb.Coverage(),
			AccuracyDelta: sb.Accuracy() - sa.Accuracy(),
			IPCDelta:      sb.IPC() - sa.IPC(),
		})
	}
	return rows
}

// LargestAccuracyRegression returns the aligned interval where run B's
// value-prediction accuracy fell furthest below run A's, and false when
// no interval regressed (or nothing aligned).
func LargestAccuracyRegression(a, b *Timeline) (DiffRow, bool) {
	var worst DiffRow
	found := false
	for _, row := range Diff(a, b) {
		if row.AccuracyDelta < 0 && (!found || row.AccuracyDelta < worst.AccuracyDelta) {
			worst = row
			found = true
		}
	}
	return worst, found
}

// --- Prometheus exposition ---------------------------------------------------

// promSeries lists the exported per-interval series: name, help, and the
// value function. Rates are exposed as gauges (they are interval-local,
// not cumulative).
var promSeries = []struct {
	name, help string
	value      func(Sample) float64
}{
	{"dlvp_timeline_instructions", "Committed instructions in the interval.",
		func(s Sample) float64 { return float64(s.Delta[metrics.Instructions]) }},
	{"dlvp_timeline_cycles", "Cycles elapsed in the interval.",
		func(s Sample) float64 { return float64(s.Delta[metrics.Cycles]) }},
	{"dlvp_timeline_ipc", "Instructions per cycle in the interval.", Sample.IPC},
	{"dlvp_timeline_vp_coverage_pct", "Value-prediction coverage in the interval (percent).", Sample.Coverage},
	{"dlvp_timeline_vp_accuracy_pct", "Value-prediction accuracy in the interval (percent).", Sample.Accuracy},
	{"dlvp_timeline_apt_hit_pct", "PAP APT hit rate in the interval (percent).", Sample.APTHitRate},
	{"dlvp_timeline_apt_conflict_pct", "PAP APT address-conflict reset rate in the interval (percent).", Sample.APTConflictRate},
	{"dlvp_timeline_apt_alias_pct", "PAP APT lookup-to-train tag-alias rate in the interval (percent).", Sample.APTAliasRate},
	{"dlvp_timeline_fpc_bumps", "FPC confidence bumps in the interval.",
		func(s Sample) float64 { return float64(s.Delta[metrics.FPCBumps]) }},
	{"dlvp_timeline_fpc_saturations", "FPC counters reaching confidence in the interval.",
		func(s Sample) float64 { return float64(s.Delta[metrics.FPCSaturations]) }},
	{"dlvp_timeline_paq_peak", "High-water PAQ occupancy in the interval.",
		func(s Sample) float64 { return float64(s.PAQPeak) }},
	{"dlvp_timeline_paq_drop_pct", "PAQ entries dropped per allocated in the interval (percent).", Sample.PAQDropRate},
	{"dlvp_timeline_lscd_inserts", "LSCD blacklist insertions in the interval.",
		func(s Sample) float64 { return float64(s.Delta[metrics.LSCDInserts]) }},
	{"dlvp_timeline_lscd_filtered", "LSCD-filtered prediction opportunities in the interval.",
		func(s Sample) float64 { return float64(s.Delta[metrics.LSCDFiltered]) }},
	{"dlvp_timeline_probe_hit_pct", "L1D probe hit rate in the interval (percent).", Sample.ProbeHitRate},
	{"dlvp_timeline_l1d_miss_pct", "L1D miss rate in the interval (percent).", Sample.L1DMissRate},
	{"dlvp_timeline_l2_miss_pct", "L2 miss rate in the interval (percent).", Sample.L2MissRate},
	{"dlvp_timeline_l3_miss_pct", "L3 miss rate in the interval (percent).", Sample.L3MissRate},
	{"dlvp_timeline_value_flushes", "Value-misprediction flushes in the interval.",
		func(s Sample) float64 { return float64(s.Delta[metrics.ValueFlushes]) }},
	{"dlvp_timeline_branch_flushes", "Branch-misprediction flushes in the interval.",
		func(s Sample) float64 { return float64(s.Delta[metrics.BranchFlushes]) }},
}

// WritePrometheus renders the timeline in the Prometheus text exposition
// format, one gauge family per series with an interval label (the
// ?format=prom view of GET /v1/runs/{id}/timeline). Interval labels carry
// the sample's starting instruction count so panels align on simulated
// progress rather than array position. The families are built on an
// obs.Registry, which escapes the labels and formats the values.
func WritePrometheus(w io.Writer, t *Timeline) {
	reg := obs.NewRegistry()
	for _, series := range promSeries {
		g := reg.Gauge(series.name, series.help, "workload", "scheme", "interval", "start_instr")
		for _, s := range t.Samples {
			g.With(t.Workload, t.Scheme, strconv.Itoa(s.Index), strconv.FormatUint(s.StartInstr, 10)).Set(series.value(s))
		}
	}
	reg.WritePrometheus(w)
}
