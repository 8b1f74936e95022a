package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlvp/internal/siteprof"
)

// siteFixture builds a two-site profile: a hot store-conflicting load and
// a quieter APT-missing one.
func siteFixture(workload, scheme string, conflictCorrect uint64) *siteprof.Profile {
	c := siteprof.NewCollector(8, workload, scheme)
	for i := uint64(0); i < conflictCorrect; i++ {
		c.Record(0x400, siteprof.Event{Cause: siteprof.CauseCorrect, Probed: true, ProbeHit: true})
	}
	for i := 0; i < 40; i++ {
		c.Record(0x400, siteprof.Event{Cause: siteprof.CauseStoreConflict, FlushCycles: 9, Probed: true, ProbeHit: true})
	}
	for i := 0; i < 30; i++ {
		c.Record(0x420, siteprof.Event{Cause: siteprof.CauseAPTMiss})
	}
	c.Record(0x420, siteprof.Event{Cause: siteprof.CauseCorrect})
	return c.Finish(50_000)
}

func writeSiteFixture(t *testing.T, p *siteprof.Profile) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), p.Scheme+"-sites.json")
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRenderSites(t *testing.T) {
	p := siteFixture("gcc", "dlvp", 60)
	out := renderSites(p)
	for _, want := range []string{
		"sites  gcc (dlvp), 2 tracked of max 8, 50000 instrs",
		"0x400",
		"0x420",
		"store_conflict",
		"apt_miss",
		"breakdown",
		"total:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sites output missing %q\n%s", want, out)
		}
	}
	// The hot mispredicting site ranks first.
	if strings.Index(out, "0x400") > strings.Index(out, "0x420") {
		t.Error("sites not ranked mispredicts-first")
	}
}

func TestRenderSitesEmpty(t *testing.T) {
	out := renderSites(&siteprof.Profile{Workload: "w", Scheme: "s", MaxSites: 4})
	if !strings.Contains(out, "no eligible loads recorded") {
		t.Errorf("empty profile output:\n%s", out)
	}
}

func TestCauseBar(t *testing.T) {
	var c siteprof.Counts
	if got := causeBar(c, 10); got != strings.Repeat(" ", 10) {
		t.Errorf("empty bar = %q", got)
	}
	c.Causes[siteprof.CauseCorrect] = 70
	c.Causes[siteprof.CauseStoreConflict] = 29
	c.Causes[siteprof.CauseAPTMiss] = 1
	c.Eligible = 100
	bar := causeBar(c, 20)
	if len(bar) != 20 {
		t.Fatalf("bar length = %d, want 20", len(bar))
	}
	// Dominant cause fills most cells; the rare cause still gets one.
	if strings.Count(bar, "#") < 10 || !strings.Contains(bar, "S") || !strings.Contains(bar, "m") {
		t.Errorf("bar = %q, want #-dominated with S and m present", bar)
	}
}

func TestRenderSitesDiff(t *testing.T) {
	a := siteFixture("gcc", "dlvp", 60)  // 0x400: 60% accuracy
	b := siteFixture("gcc", "vtage", 20) // 0x400: 33% accuracy
	out := renderSitesDiff(a, b)
	for _, want := range []string{
		"sites diff  A: gcc (dlvp)",
		"largest accuracy regression: pc 0x400",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q\n%s", want, out)
		}
	}
	// No regression in the improving direction.
	if out := renderSitesDiff(b, a); !strings.Contains(out, "no per-site accuracy regression") {
		t.Errorf("reverse diff should report no regression:\n%s", out)
	}
}

func TestLoadSiteProfile(t *testing.T) {
	p := siteFixture("gcc", "dlvp", 10)
	path := writeSiteFixture(t, p)
	back, err := load[siteprof.Profile](path, "site profile")
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != "gcc" || len(back.Sites) != len(p.Sites) {
		t.Errorf("loaded profile = %q/%d sites", back.Workload, len(back.Sites))
	}
	if _, err := load[siteprof.Profile](filepath.Join(t.TempDir(), "absent.json"), "site profile"); err == nil {
		t.Error("missing file load succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if _, err := load[siteprof.Profile](bad, "site profile"); err == nil || !strings.Contains(err.Error(), "decode site profile") {
		t.Errorf("bad JSON err = %v", err)
	}

	// sites reads a profile straight from a daemon's GET /v1/runs/{id}/sites.
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(data) }))
	defer ts.Close()
	served, err := load[siteprof.Profile](ts.URL+"/v1/runs/job-1/sites", "site profile")
	if err != nil {
		t.Fatal(err)
	}
	if out := renderSites(served); !strings.Contains(out, "sites  gcc (dlvp), 2 tracked of max 8") {
		t.Errorf("sites of the served profile:\n%s", out)
	}
}
