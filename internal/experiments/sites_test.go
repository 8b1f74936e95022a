package experiments

import (
	"testing"

	"dlvp/internal/runner"
)

// Figure 6 simulates every job the sites table reads, so on the runner
// that ran it Sites is all cache hits: it simulates nothing and renders
// the same table as on a fresh runner.
func TestSitesReadsFig6Results(t *testing.T) {
	r := runner.New(runner.Options{})
	p := Params{Instrs: 8_000, Workloads: []string{"perlbmk", "nat", "mcf"}, Parallel: true, Runner: r}
	if _, err := Fig6(p); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	got, err := Sites(p)
	if err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if n := after.SimsExecuted - before.SimsExecuted; n != 0 {
		t.Errorf("Sites after Fig6 executed %d simulations, want 0", n)
	}
	if n, want := after.CacheHits-before.CacheHits, int64(3*len(p.Workloads)); n != want {
		t.Errorf("Sites after Fig6 made %d cache hits, want %d (3 per workload)", n, want)
	}

	p.Runner = runner.New(runner.Options{})
	want, err := Sites(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("Sites rendered %d and %d tables, want 1 each", len(got), len(want))
	}
	if g, w := got[0].String(), want[0].String(); g != w {
		t.Errorf("Sites after Fig6 differs from Sites on a fresh runner:\n%s\n---\n%s", g, w)
	}
}
