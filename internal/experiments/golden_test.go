package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"testing"

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
