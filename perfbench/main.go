// Command perfbench is the repository's layered benchmark. One invocation
// measures one workload for a time budget from a cold start, checks every
// output it gets against a committed digest or an independent in-process
// computation, and prints one JSON result line:
//
//	regen  the headline digest (experiment "summary": 43 kernels x
//	       base/cap/vtage/dlvp at 300k instructions) in-process on a fresh
//	       runner with the default 512 MiB trace cache, as cmd/experiments
//	       runs it
//	sweep  one sampled POST /v1/matrices (8 kernels x 4 schemes) against a
//	       fresh loopback mesh of two peered dlvpd -workers 1 daemons
//	serve  a closed loop of two clients posting /v1/runs to such a mesh,
//	       mixing repeats (result-cache hits) with fresh jobs (misses)
//
// With -trace 0 the result carries the end-to-end metrics (set-up time, the
// CPU time of the work, peak memory); with -trace 1
// it alternates untraced and traced units, adds benchmark-side spans,
// daemon span trees and CPU profiles, runs the layer microbenchmarks, and
// carries the per-layer metrics. layers.json records which end-to-end
// metric each layer metric should move, on which workload, and which
// counts repeat exactly.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload regen --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	dlvpd    string // daemon binary (sweep, serve)
	out      string // directory for the result record, profiles and spans
	// writeDigest makes regen rewrite its committed digest, not check it.
	writeDigest bool
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// unit is one cold-start repetition of a workload: the set-up it paid,
// the work it timed (host CPU time of the processes doing it, and elapsed
// time), the memory it peaked at, and its raw layer counters.
type unit struct {
	traced    bool
	setup     []time.Duration
	cpu       time.Duration
	wall      time.Duration
	rssMB     float64
	attempted int64
	layers    map[string]float64
	output    string // what the run's output check compares (sweep tables)
}

// env is what every workload runs against.
type env struct {
	options
	ctx   context.Context
	index int    // of the unit running now
	spans *spans // nil in untraced runs; records only traced units
	// mismatches collects failed or wrong outputs, one per failed job,
	// cell or request; any makes the run incorrect.
	mismatches []string
	// serveSamples are served fresh jobs kept for serveCheck.
	serveSamples []serveSample
}

func (e *env) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "mismatch:", msg)
	e.mismatches = append(e.mismatches, msg)
}

// workloadFunc runs one unit; traced selects the instrumented variant.
type workloadFunc func(e *env, traced bool) (unit, error)

// workloadDef is one workload: its unit and the output check made once
// per run after the timed units.
type workloadDef struct {
	unit  workloadFunc
	check func(e *env, units []unit) error
}

var workloadDefs = map[string]workloadDef{
	"regen": {unit: regenUnit, check: regenCheck},
	"sweep": {unit: sweepUnit, check: sweepCheck},
	"serve": {unit: serveUnit, check: serveCheck},
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: regen, sweep or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring budget in seconds (whole units run until it is spent, at least one)")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.dlvpd, "dlvpd", "", "dlvpd binary for the sweep and serve meshes")
	flag.StringVar(&o.out, "out", "", "directory for the result record, CPU profiles and span dumps (empty: none)")
	flag.BoolVar(&o.writeDigest, "write-digest", false, "regen: rewrite regen_digest.json from this run instead of checking it")
	flag.Parse()
	o.traced = traceFlag != 0

	def, ok := workloadDefs[o.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (known: regen, sweep, serve)", o.workload))
	}
	if o.workload != "regen" && o.dlvpd == "" {
		fail(errors.New("-dlvpd is required for the mesh workloads"))
	}

	fp := fingerprint()
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	e := &env{options: o, ctx: context.Background()}
	if o.traced {
		e.spans = newSpans()
	}
	units, err := measure(e, def.unit)
	if err != nil {
		fail(err)
	}
	if err := def.check(e, units); err != nil {
		fail(err)
	}

	m := newMetrics()
	var res result
	for _, u := range units {
		res.Attempted += u.attempted
	}
	res.Failed = int64(len(e.mismatches))
	res.Correct = res.Failed == 0
	want := spec.EndToEnd
	plain := unitMedians(units, false)
	if !o.traced {
		for _, d := range want {
			m.add(d.Name, plain.m[d.Name].Unit, plain.m[d.Name].Value)
		}
		m.note("%s_s = wall_s = %.6g s on this workload; error_rate = failed/attempted = %d/%d",
			o.workload, plain.m["wall_s"].Value, res.Failed, res.Attempted)
	} else {
		want = spec.PerLayer
		// Elapsed time is a per-layer row: on a shared host it carries the
		// scheduler's share, which cpu_s leaves out.
		m.add("wall_s", "s", plain.m["wall_s"].Value)
		withTracing := unitMedians(units, true)
		for _, name := range plain.order {
			p, t := plain.m[name], withTracing.m[name]
			m.add("tracing.delta."+name, p.Unit, t.Value-p.Value)
		}
		if err := layerSuite(e, m); err != nil {
			fail(err)
		}
		reportLayers(units, spec.PerLayer, m)
		if err := e.spans.write(e.outPath("spans.json")); err != nil {
			fail(err)
		}
	}
	if err := m.matches(want); err != nil {
		fail(err)
	}
	res.Metrics = m.m

	fmt.Printf("# host %s\n", mustJSON(fp))
	for _, name := range m.order {
		fmt.Printf("# %-40s %14.6g %s\n", name, m.m[name].Value, m.m[name].Unit)
	}
	for _, line := range m.notes {
		fmt.Printf("# %s\n", line)
	}
	if o.out != "" {
		var perUnit []map[string]any
		for _, u := range units {
			perUnit = append(perUnit, map[string]any{"traced": u.traced, "setup_s": secondsOf(u.setup), "cpu_s": u.cpu.Seconds(), "wall_s": u.wall.Seconds(),
				"peak_rss_mb": u.rssMB, "layers": u.layers})
		}
		record := map[string]any{"host": fp, "workload": o.workload, "seed": o.seed,
			"seconds": o.seconds, "traced": o.traced, "units": perUnit, "result": res, "notes": m.notes}
		if err := writeJSON(e.outPath("result.json"), record); err != nil {
			fail(err)
		}
	}
	fmt.Println(mustJSON(res))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// measure runs whole units until the budget is spent: at least one, and
// in traced runs at least one untraced and one traced unit, alternating.
func measure(e *env, fn workloadFunc) ([]unit, error) {
	var units []unit
	start := time.Now()
	for i := 0; ; i++ {
		traced := e.traced && i%2 == 1
		e.index = i
		u, err := fn(e, traced)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", e.workload, i, err)
		}
		u.traced = traced
		units = append(units, u)
		done := time.Since(start).Seconds() >= e.seconds
		if done && (!e.traced || i >= 1) {
			return units, nil
		}
	}
}

// outPath names a file of this run under -out (empty when -out is unset).
func (e *env) outPath(name string) string {
	if e.out == "" {
		return ""
	}
	tag := "untraced"
	if e.traced {
		tag = "traced"
	}
	return filepath.Join(e.out, fmt.Sprintf("%s-seed%d-%s-%s", e.workload, e.seed, tag, name))
}

// metricSet is the ordered metric set of one result.
type metricSet struct {
	m     map[string]metric
	order []string
	notes []string
}

func newMetrics() *metricSet { return &metricSet{m: map[string]metric{}} }

func (m *metricSet) add(name, unit string, v float64) {
	if _, dup := m.m[name]; !dup {
		m.order = append(m.order, name)
	}
	m.m[name] = metric{Value: v, Unit: unit}
}

func (m *metricSet) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark holds itself to:
// a run prints exactly the declared metrics, with the declared units.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read metric declarations: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// matches reports any difference between the measured and declared sets.
func (m *metricSet) matches(want []specMetric) error {
	var diffs []string
	for _, w := range want {
		got, ok := m.m[w.Name]
		if !ok {
			diffs = append(diffs, "missing "+w.Name)
		} else if got.Unit != w.Unit {
			diffs = append(diffs, fmt.Sprintf("%s in %s, declared %s", w.Name, got.Unit, w.Unit))
		}
	}
	if len(diffs) == 0 && len(want) != len(m.m) {
		diffs = append(diffs, fmt.Sprintf("%d metrics measured, %d declared", len(m.m), len(want)))
	}
	if len(diffs) > 0 {
		return fmt.Errorf("metrics differ from BENCHMARK.json: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// reportLayers adds every declared per-layer metric not yet measured: the
// median over the untraced units of the value each recorded, so that the
// profilers and tagged trace fetches of traced units stay out of it. Rows
// only traced units record (span self times) take the traced units'
// median; a row no unit records is 0 (the workload does not exercise the
// layer).
func reportLayers(units []unit, decl []specMetric, m *metricSet) {
	for _, d := range decl {
		if _, done := m.m[d.Name]; done {
			continue
		}
		var plain, traced []float64
		for _, u := range units {
			v, ok := u.layers[d.Name]
			switch {
			case !ok:
			case u.traced:
				traced = append(traced, v)
			default:
				plain = append(plain, v)
			}
		}
		if len(plain) == 0 {
			plain = traced
		}
		m.add(d.Name, d.Unit, median(plain))
	}
}

// unitMedians is the median of each unit-level measurement over the
// untraced units (traced units when traced is set).
func unitMedians(units []unit, traced bool) *metricSet {
	var setup, cpu, wall, rss []float64
	for _, u := range units {
		if u.traced != traced {
			continue
		}
		setup = append(setup, secondsOf(u.setup)...)
		cpu = append(cpu, u.cpu.Seconds())
		wall = append(wall, u.wall.Seconds())
		rss = append(rss, u.rssMB)
	}
	m := newMetrics()
	m.add("setup_s", "s", median(setup))
	m.add("cpu_s", "s", median(cpu))
	m.add("wall_s", "s", median(wall))
	m.add("peak_rss_mb", "MB", median(rss))
	return m
}

// --- host fingerprint -----------------------------------------------------

// host identifies the machine and code a result was measured on, so that
// numbers from different hosts are never compared.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the go command stamped into this binary, with
// "+modified" for a dirty tree; "none" when built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "none", ""
	for _, kv := range info.Settings {
		switch {
		case kv.Key == "vcs.revision":
			rev = kv.Value
		case kv.Key == "vcs.modified" && kv.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}

// --- small helpers ----------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(sum, count float64) float64 {
	if count == 0 {
		return 0
	}
	return sum / count
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data is marshalled here
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// secondsOf converts durations to seconds.
func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
