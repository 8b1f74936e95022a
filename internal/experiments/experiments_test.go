package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dlvp/internal/metrics"
	"dlvp/internal/runner"
)

// tinyParams keeps experiment tests fast: two contrasting workloads, small
// budgets.
func tinyParams() Params {
	return Params{
		Instrs:    8_000,
		Workloads: []string{"perlbmk", "nat"},
		Parallel:  true,
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := e.Run(tinyParams())
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				out := tb.String()
				if len(out) == 0 || tb.Title == "" {
					t.Errorf("empty table render for %s", e.ID)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig6"); !ok {
		t.Error("fig6 missing")
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("phantom experiment")
	}
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	if len(ids) != 17 {
		t.Errorf("experiment count = %d, want 17 (figures + tables + extensions + summary)", len(ids))
	}
}

func TestUnknownWorkloadError(t *testing.T) {
	p := Params{Instrs: 100, Workloads: []string{"ghost"}}
	if _, err := p.pool(); err == nil {
		t.Fatal("pool() accepted an unknown workload")
	}
	// The error must surface through every driver kind: a matrix
	// experiment, a trace profile, and the standalone-predictor figure.
	for _, id := range []string{"fig6", "fig1", "fig4", "tab3"} {
		e, _ := ByID(id)
		if _, err := e.Run(p); err == nil {
			t.Errorf("%s.Run accepted an unknown workload", id)
		} else {
			var uw *runner.UnknownWorkloadError
			if !errors.As(err, &uw) || uw.Name != "ghost" {
				t.Errorf("%s.Run error = %v, want UnknownWorkloadError{ghost}", id, err)
			}
		}
	}
}

func TestFig1ShapeCommittedDominates(t *testing.T) {
	// Across the full pool, committed conflicts must dominate in-flight
	// ones (the paper's ~2:1 split is the motivation for DLVP).
	p := Params{Instrs: 20_000, Parallel: true}
	tables, err := Fig1(p)
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].String()
	if !strings.Contains(out, "AVERAGE") {
		t.Fatalf("no average row:\n%s", out)
	}
	// Structural check on the last data row.
	rows := tables[0].Rows
	avg := rows[len(rows)-1]
	if avg[0] != "AVERAGE" {
		t.Fatal("last row is not the average")
	}
	committed := parsePct(t, avg[1])
	inflight := parsePct(t, avg[2])
	if committed <= 0 {
		t.Error("no committed conflicts found across the pool")
	}
	if inflight <= 0 {
		t.Error("no in-flight conflicts found across the pool")
	}
	if committed <= inflight {
		t.Errorf("committed (%v%%) should dominate in-flight (%v%%) per Figure 1", committed, inflight)
	}
}

func TestFig2ShapeAddressesVsValues(t *testing.T) {
	p := Params{Instrs: 20_000, Parallel: true}
	tbs, err := Fig2(p)
	if err != nil {
		t.Fatal(err)
	}
	tb := tbs[0]
	// Cumulative columns must be non-increasing down the table.
	prevA, prevV := 101.0, 101.0
	for _, row := range tb.Rows {
		a := parsePct(t, row[3])
		v := parsePct(t, row[4])
		if a > prevA+1e-9 || v > prevV+1e-9 {
			t.Fatalf("cumulative curves must be non-increasing:\n%s", tb.String())
		}
		prevA, prevV = a, v
	}
}

func TestFig4Shape(t *testing.T) {
	p := Params{Instrs: 30_000, Parallel: true}
	tbs, err := Fig4(p)
	if err != nil {
		t.Fatal(err)
	}
	tb := tbs[0]
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d, want PAP + 6 CAP sweep points", len(tb.Rows))
	}
	// CAP coverage must fall as confidence rises.
	var prev float64 = 101
	for _, row := range tb.Rows[1:] {
		cov := parsePct(t, row[2])
		if cov > prev+1e-9 {
			t.Errorf("CAP coverage must fall with confidence:\n%s", tb.String())
		}
		prev = cov
	}
	// CAP accuracy at 64 must be >= accuracy at 3.
	acc3 := parsePct(t, tb.Rows[1][3])
	acc64 := parsePct(t, tb.Rows[6][3])
	if acc64 < acc3 {
		t.Errorf("CAP accuracy should rise with confidence: %v -> %v", acc3, acc64)
	}
	// PAP accuracy must clear the paper's 99% bar.
	if acc := parsePct(t, tb.Rows[0][3]); acc < 99 {
		t.Errorf("PAP standalone accuracy = %v%%, want >= 99%%", acc)
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

// TestMatrixSerialParallelIdentical locks result determinism across worker
// counts at the driver level: the same figure regenerated serially and in
// parallel renders byte-identical tables.
func TestMatrixSerialParallelIdentical(t *testing.T) {
	render := func(parallel bool) string {
		p := tinyParams()
		p.Parallel = parallel
		p.Runner = runner.New(runner.Options{})
		tables, err := Fig5(p)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for _, tb := range tables {
			out.WriteString(tb.String())
		}
		return out.String()
	}
	serial, parallel := render(false), render(true)
	if serial != parallel {
		t.Errorf("serial and parallel renders differ:\n%s\n---\n%s", serial, parallel)
	}
}

// TestMatrixCancellation checks a cancelled context aborts a matrix driver.
func TestMatrixCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := tinyParams()
	p.Ctx = ctx
	p.Runner = runner.New(runner.Options{})
	if _, err := Fig6(p); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRunArtifact checks the shared JSON payload wraps the same tables the
// text path renders.
func TestRunArtifact(t *testing.T) {
	e, _ := ByID("tab4")
	a, err := e.RunArtifact(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "tab4" || len(a.Tables) == 0 || a.Instrs != tinyParams().Instrs {
		t.Errorf("artifact = %+v", a)
	}
}

// validatingEngine fails any job whose config does not pass
// config.Core.Validate, then runs it on r.
type validatingEngine struct{ r *runner.Runner }

func (e validatingEngine) Run(ctx context.Context, job runner.Job) (metrics.RunStats, bool, error) {
	if err := job.Config.Validate(); err != nil {
		return metrics.RunStats{}, false, err
	}
	return e.r.Run(ctx, job)
}

func (e validatingEngine) RunResult(ctx context.Context, job runner.Job) (runner.Result, bool, error) {
	if err := job.Config.Validate(); err != nil {
		return runner.Result{}, false, err
	}
	return e.r.RunResult(ctx, job)
}

// Every config an experiment builds, ablations included, passes the
// validation that configs arriving over the wire get.
func TestExperimentConfigsValidate(t *testing.T) {
	p := Params{Instrs: 2_000, Workloads: []string{"perlbmk"}, Parallel: true,
		Runner: validatingEngine{runner.New(runner.Options{})}}
	for _, e := range All() {
		if _, err := e.Run(p); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
	}
}
