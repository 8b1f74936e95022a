package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"testing"
	"time"

	"dlvp/internal/tabletext"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/trace_figures.json from the current drivers")

const (
	traceFiguresFile   = "testdata/trace_figures.json"
	traceFiguresInstrs = 50_000
)

// TestTraceFiguresGolden pins the trace-level figures (1, 2 and 4) over the
// whole pool byte for byte. They bypass the runner, so neither the golden
// stats nor the matrix tests cover them. Regenerate deliberately with
//
//	go test ./internal/experiments -run TestTraceFiguresGolden -update-golden
func TestTraceFiguresGolden(t *testing.T) {
	p := Params{Instrs: traceFiguresInstrs}
	got := map[string][]*tabletext.Table{}
	for _, id := range []string{"fig1", "fig2", "fig4"} {
		e, _ := ByID(id)
		tables, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got[id] = tables
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if *updateGolden {
		if err := os.WriteFile(traceFiguresFile, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceFiguresFile)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	if !bytes.Equal(buf, want) {
		t.Errorf("trace figures differ from %s:\n%s", traceFiguresFile, buf)
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
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		_, err := Fig1(Params{Instrs: 1 << 40, Workloads: []string{"gcc"}, Ctx: ctx})
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("Fig1 returned %v after it started, want within 1s", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fig1 still streaming 5s after it started, 4.9s past its deadline")
	}
}
