package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"slices"
	"testing"
	"time"

	"dlvp/internal/tabletext"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the pinned tables under testdata/ from the current drivers")

const (
	traceFiguresFile   = "testdata/trace_figures.json"
	traceFiguresInstrs = 50_000
	tablesFile         = "testdata/tables.json"
	tablesInstrs       = 10_000
)

// traceFigures are the experiments that observe the emulated stream and
// simulate nothing, so a larger budget costs them little.
var traceFigures = []string{"fig1", "fig2", "fig4"}

// TestTraceFiguresGolden pins every experiment's tables over the whole pool
// byte for byte: the trace-level figures at traceFiguresInstrs in
// traceFiguresFile, every other experiment at tablesInstrs in tablesFile.
// Regenerate deliberately with
//
//	go test ./internal/experiments -run TestTraceFiguresGolden -update-golden
func TestTraceFiguresGolden(t *testing.T) {
	trace, rest := map[string][]*tabletext.Table{}, map[string][]*tabletext.Table{}
	for _, e := range All() {
		p, got := Params{Instrs: tablesInstrs}, rest
		if slices.Contains(traceFigures, e.ID) {
			p, got = Params{Instrs: traceFiguresInstrs}, trace
		}
		tables, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got[e.ID] = tables
	}
	checkGolden(t, traceFiguresFile, trace)
	checkGolden(t, tablesFile, rest)
}

// checkGolden compares got's indented JSON with file, or rewrites file
// under -update-golden.
func checkGolden(t *testing.T, file string, got map[string][]*tabletext.Table) {
	t.Helper()
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if *updateGolden {
		if err := os.WriteFile(file, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	if !bytes.Equal(buf, want) {
		t.Errorf("tables differ from %s:\n%s", file, buf)
	}
}

// TestTraceFiguresCancellation checks every trace-level driver honours an
// already-cancelled context.
func TestTraceFiguresCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"fig1", "fig2", "fig4", "summary"} {
		e, _ := ByID(id)
		p := tinyParams()
		p.Ctx = ctx
		if _, err := e.Run(p); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", id, err)
		}
	}
}

// TestTraceFigureStopsMidStream: a trace-level figure whose context ends
// while it streams a workload stops within a few thousand records instead
// of running out a budget of 2^40 instructions. The watchdog fails the test
// instead of letting a figure that ignores its context hang it.
func TestTraceFigureStopsMidStream(t *testing.T) {
	for _, id := range []string{"fig1", "fig2", "fig4", "summary"} {
		t.Run(id, func(t *testing.T) {
			e, _ := ByID(id)
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			errc := make(chan error, 1)
			go func() {
				_, err := e.Run(Params{Instrs: 1 << 40, Workloads: []string{"gcc"}, Ctx: ctx})
				errc <- err
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
				if d := time.Since(start); d > time.Second {
					t.Errorf("returned %v after it started, want within 1s", d)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("still streaming 5s after it started, 4.9s past its deadline")
			}
		})
	}
}
