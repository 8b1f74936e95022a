package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlvp/internal/metrics"
	"dlvp/internal/timeline"
)

// fixture builds a timeline whose per-interval accuracy follows accs (in
// percent, with 100 predictions per interval).
func fixture(workload, scheme string, accs []float64) *timeline.Timeline {
	r := timeline.NewRecorder(10_000, 0, workload, scheme)
	var cum metrics.Counters
	for _, acc := range accs {
		cum[metrics.Instructions] += 10_000
		cum[metrics.Cycles] += 20_000
		cum[metrics.Loads] += 3_000
		cum[metrics.VPEligible] += 200
		cum[metrics.VPPredicted] += 100
		cum[metrics.VPCorrect] += uint64(acc)
		cum[metrics.APTLookups] += 300
		cum[metrics.APTHits] += 250
		cum[metrics.Probes] += 100
		cum[metrics.ProbeHits] += 80
		cum[metrics.L1DAccesses] += 3_000
		cum[metrics.L1DMisses] += 150
		r.Sample(cum, 12)
	}
	return r.Finish(cum, 0)
}

func writeFixture(t *testing.T, tl *timeline.Timeline) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), tl.Scheme+".json")
	data, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRenderShow(t *testing.T) {
	tl := fixture("gcc", "dlvp", []float64{90, 92, 91, 93})
	out := renderShow(tl)
	for _, want := range []string{
		"timeline  gcc (dlvp), 4 samples, interval 10000 instrs",
		"IPC",
		"VP accuracy %",
		"paq-peak",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("show output missing %q\n%s", want, out)
		}
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Error("show output has no sparkline glyphs")
	}
}

func TestRenderShowEmpty(t *testing.T) {
	out := renderShow(&timeline.Timeline{Workload: "gcc", Scheme: "dlvp", IntervalInstrs: 100})
	if !strings.Contains(out, "no samples recorded") {
		t.Errorf("empty show output = %q", out)
	}
}

// diff must pinpoint the interval where an injected mid-run accuracy
// regression bottomed out.
func TestRenderDiffFlagsInjectedRegression(t *testing.T) {
	base := fixture("gcc", "dlvp", []float64{90, 90, 90, 90, 90, 90})
	// Run B regresses mid-run: interval 3 is the deepest drop.
	regressed := fixture("gcc", "dlvp-conflict", []float64{90, 90, 82, 55, 84, 90})
	out := renderDiff(base, regressed)
	if !strings.Contains(out, "largest accuracy regression: interval 3 (instrs 30000-40000)") {
		t.Errorf("diff did not pinpoint interval 3:\n%s", out)
	}
	if !strings.Contains(out, "90.00% -> 55.00% (-35.00 pts)") {
		t.Errorf("diff did not report the regression magnitude:\n%s", out)
	}
	if !strings.Contains(out, "<-- largest accuracy regression") {
		t.Errorf("diff table does not mark the regressed row:\n%s", out)
	}
}

func TestRenderDiffNoRegression(t *testing.T) {
	a := fixture("gcc", "dlvp", []float64{80, 80})
	b := fixture("gcc", "dlvp", []float64{85, 90})
	if out := renderDiff(a, b); !strings.Contains(out, "no accuracy regression") {
		t.Errorf("improvement misreported:\n%s", out)
	}
}

func TestLoadTimeline(t *testing.T) {
	tl := fixture("mcf", "dlvp", []float64{88, 91})
	path := writeFixture(t, tl)
	got, err := load[timeline.Timeline](path, "timeline")
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "mcf" || len(got.Samples) != 2 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := load[timeline.Timeline](filepath.Join(t.TempDir(), "missing.json"), "timeline"); err == nil {
		t.Error("missing file did not error")
	}

	// show and diff read a timeline straight from a daemon's GET
	// /v1/runs/{id}/timeline, and an error answer quotes its body.
	data, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/runs/job-1/timeline" {
			http.Error(w, `{"error":"unknown job id"}`, http.StatusNotFound)
			return
		}
		w.Write(data)
	}))
	defer ts.Close()
	got, err = load[timeline.Timeline](ts.URL+"/v1/runs/job-1/timeline", "timeline")
	if err != nil {
		t.Fatal(err)
	}
	if out := renderShow(got); !strings.Contains(out, "timeline  mcf (dlvp), 2 samples") {
		t.Errorf("show of the served timeline:\n%s", out)
	}
	_, err = load[timeline.Timeline](ts.URL+"/v1/runs/nope/timeline", "timeline")
	if err == nil || !strings.Contains(err.Error(), "404") || !strings.Contains(err.Error(), "unknown job id") {
		t.Errorf("404 answer: err = %v, want the status and the body quoted", err)
	}
}
