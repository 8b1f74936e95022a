// Golden-stats harness: the bit-identity gate for the simulator core.
//
// TestGoldenStats runs every bundled workload under four representative
// schemes (baseline, DLVP, VTAGE, tournament) at a fixed instruction
// budget and compares the complete RunStats — every counter, rate and
// energy figure — byte-for-byte against the committed snapshot in
// testdata/golden_stats.json. A subset of workloads additionally runs
// with a sample window, the flight recorder and the per-site attribution
// collector enabled, and their timeline and siteprof artifacts are
// diffed the same way, so a core change that perturbs only sampled or
// profiled runs cannot slip through.
//
// Any intentional timing change (e.g. a documented modelling fix) must
// regenerate the snapshot with
//
//	go test -run TestGoldenStats -update-golden .
//
// and explain the resulting deltas in the commit that carries them. A
// change that only adds counters to metrics.Counters moves nothing but the
// sampled cells' counter objects; go run ./testdata/goldenkeys checks a
// regenerated file against the earlier one for exactly that.
package dlvp

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/uarch"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.json from the current core")

const (
	goldenFile   = "testdata/golden_stats.json"
	goldenInstrs = 6_000

	// Sampled-artifact parameters (applied to goldenSampledWorkloads):
	// 1k warm-up commits, 3k measured commits, 500-instr timeline
	// intervals, 32 tracked sites.
	goldenWarmup     = 1_000
	goldenMeasured   = 3_000
	goldenTLInterval = 500
	goldenTLCapacity = 64
	goldenMaxSites   = 32
)

// goldenSchemes are the four configurations the acceptance criteria name.
func goldenSchemes() map[string]config.Core {
	return map[string]config.Core{
		"baseline":   config.Baseline(),
		"dlvp":       config.DLVP(),
		"vtage":      config.VTAGE(),
		"tournament": config.Tournament(),
	}
}

// goldenSampledWorkloads get the timeline + siteprof + sample-window
// treatment (under DLVP, the scheme with the most machinery engaged).
var goldenSampledWorkloads = []string{"perlbmk", "mcf", "gap", "vortex", "twolf"}

// goldenCell is one (workload, scheme) snapshot. Stats is the complete
// RunStats; Timeline/Sites are the optional sampled artifacts.
type goldenCell struct {
	Stats    json.RawMessage `json:"stats"`
	Timeline json.RawMessage `json:"timeline,omitempty"`
	Sites    json.RawMessage `json:"sites,omitempty"`
	Measured json.RawMessage `json:"measured,omitempty"`
}

func goldenRun(t *testing.T, workload string, cfg config.Core) goldenCell {
	t.Helper()
	w, ok := WorkloadByName(workload)
	if !ok {
		t.Fatalf("workload %q not registered", workload)
	}
	core := uarch.New(cfg, w.Build(), w.Reader(goldenInstrs))
	stats := core.Run(0)
	raw, err := json.Marshal(stats)
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	return goldenCell{Stats: raw}
}

func goldenSampledRun(t *testing.T, workload string, cfg config.Core) goldenCell {
	t.Helper()
	w, ok := WorkloadByName(workload)
	if !ok {
		t.Fatalf("workload %q not registered", workload)
	}
	core := uarch.New(cfg, w.Build(), w.Reader(goldenInstrs))
	core.SetSampleWindow(goldenWarmup, goldenMeasured)
	core.EnableTimeline(goldenTLInterval, goldenTLCapacity)
	core.EnableSiteProfile(goldenMaxSites)
	stats := core.Run(0)

	cell := goldenCell{}
	var err error
	if cell.Stats, err = json.Marshal(stats); err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	if tl := core.Timeline(); tl != nil {
		if cell.Timeline, err = json.Marshal(tl); err != nil {
			t.Fatalf("marshal timeline: %v", err)
		}
	}
	if sp := core.SiteProfile(); sp != nil {
		if cell.Sites, err = json.Marshal(sp); err != nil {
			t.Fatalf("marshal sites: %v", err)
		}
	}
	meas, complete := core.MeasuredCounters()
	if !complete {
		t.Fatalf("%s: sample window did not complete", workload)
	}
	if cell.Measured, err = json.Marshal(meas); err != nil {
		t.Fatalf("marshal measured: %v", err)
	}
	return cell
}

// buildGolden produces the full snapshot map: one cell per
// workload/scheme, plus workload/dlvp-sampled cells for the subset.
func buildGolden(t *testing.T) map[string]goldenCell {
	t.Helper()
	type job struct {
		key      string
		workload string
		cfg      config.Core
		sampled  bool
	}
	var jobs []job
	for name, cfg := range goldenSchemes() {
		for _, w := range Workloads() {
			jobs = append(jobs, job{key: w.Name + "/" + name, workload: w.Name, cfg: cfg})
		}
	}
	for _, wl := range goldenSampledWorkloads {
		jobs = append(jobs, job{key: wl + "/dlvp-sampled", workload: wl, cfg: config.DLVP(), sampled: true})
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].key < jobs[j].key })

	out := make(map[string]goldenCell, len(jobs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, jb := range jobs {
		wg.Add(1)
		go func(jb job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var cell goldenCell
			if jb.sampled {
				cell = goldenSampledRun(t, jb.workload, jb.cfg)
			} else {
				cell = goldenRun(t, jb.workload, jb.cfg)
			}
			mu.Lock()
			out[jb.key] = cell
			mu.Unlock()
		}(jb)
	}
	wg.Wait()
	return out
}

func encodeGolden(t *testing.T, cells map[string]goldenCell) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatalf("marshal golden: %v", err)
	}
	return append(buf, '\n')
}

func TestGoldenStats(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not short")
	}
	got := encodeGolden(t, buildGolden(t))

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenFile, len(got))
		return
	}

	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read %s: %v (run `go test -run TestGoldenStats -update-golden .` to generate)", goldenFile, err)
	}
	if bytes.Equal(got, want) {
		return
	}

	// Report the exact cells that moved, field by field, so a regression
	// is diagnosable from the test log alone.
	var wantCells, gotCells map[string]goldenCell
	if err := json.Unmarshal(want, &wantCells); err != nil {
		t.Fatalf("decode committed golden: %v", err)
	}
	if err := json.Unmarshal(got, &gotCells); err != nil {
		t.Fatalf("decode fresh golden: %v", err)
	}
	var keys []string
	for k := range wantCells {
		keys = append(keys, k)
	}
	for k := range gotCells {
		if _, ok := wantCells[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	changed := 0
	for _, k := range keys {
		w, g := wantCells[k], gotCells[k]
		for _, part := range []struct {
			name      string
			want, got json.RawMessage
		}{
			{"stats", w.Stats, g.Stats},
			{"timeline", w.Timeline, g.Timeline},
			{"sites", w.Sites, g.Sites},
			{"measured", w.Measured, g.Measured},
		} {
			if bytes.Equal(part.want, part.got) {
				continue
			}
			changed++
			if changed <= 20 {
				t.Errorf("%s %s diverged:\n  want %s\n  got  %s",
					k, part.name, truncJSON(part.want), truncJSON(part.got))
			}
		}
	}
	t.Fatalf("golden stats diverged in %d artifact(s) across %d cells; "+
		"if intentional, regenerate with -update-golden and document the delta", changed, len(keys))
}

func truncJSON(raw json.RawMessage) string {
	s := string(raw)
	if len(s) > 400 {
		s = s[:400] + "..."
	}
	if s == "" {
		s = "<absent>"
	}
	return s
}

// TestGoldenHarnessDetectsDrift proves the harness actually bites: a
// perturbed copy of the snapshot must be flagged as divergent.
func TestGoldenHarnessDetectsDrift(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Skipf("no golden file yet: %v", err)
	}
	var cells map[string]goldenCell
	if err := json.Unmarshal(want, &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) < 43*4 {
		t.Fatalf("golden file has %d cells, want >= %d (43 workloads x 4 schemes)", len(cells), 43*4)
	}
	for k, cell := range cells {
		var stats map[string]any
		if err := json.Unmarshal(cell.Stats, &stats); err != nil {
			t.Fatalf("%s: stats not valid JSON: %v", k, err)
		}
		if stats["Cycles"] == nil || stats["Instructions"] == nil {
			t.Fatalf("%s: stats missing core counters: %s", k, truncJSON(cell.Stats))
		}
		break
	}
	// Flip one byte; the comparison path must notice.
	mutated := bytes.Replace(want, []byte(`"Cycles"`), []byte(`"CycleZ"`), 1)
	if bytes.Equal(mutated, want) {
		t.Fatal("mutation did not apply")
	}
	if fmt.Sprintf("%x", mutated) == fmt.Sprintf("%x", want) {
		t.Fatal("mutation invisible")
	}
}
