package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dlvp/internal/matrix"
	"dlvp/internal/tabletext"
)

func matrixFixture() *matrix.View {
	created := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	return &matrix.View{
		ID:        "abc123",
		Status:    matrix.StatusRunning,
		Workloads: 3,
		Schemes:   []string{"baseline", "dlvp"},
		Instrs:    50_000_000,
		Created:   created,
		Shards: []matrix.ShardView{
			{ID: 0, Workload: "linpack", Cells: 2, State: matrix.ShardDone,
				Assigned: "peer-a", Owner: "peer-a", Attempts: 1, CacheHits: 1, ElapsedMS: 120},
			{ID: 1, Workload: "soplex", Cells: 2, State: matrix.ShardDone,
				Assigned: "peer-a", Owner: "local", Stolen: true, Attempts: 1, ElapsedMS: 340},
			{ID: 2, Workload: "milc", Cells: 2, State: matrix.ShardRunning,
				Assigned: "peer-a", Owner: "peer-a", Attempts: 1},
		},
		Counts:     matrix.Counts{Running: 1, Done: 2},
		CellsDone:  4,
		CellsTotal: 6,
		CacheHits:  1,
		Stolen:     1,
		Targets:    []string{"local", "peer-a"},
		Tables: []*tabletext.Table{{
			Title:  "IPC by scheme",
			Header: []string{"workload", "baseline", "dlvp"},
			Rows:   [][]string{{"linpack", "0.50", "0.61"}},
			Notes:  []string{"partial: 4/6 cells aggregated"},
		}},
	}
}

func TestRenderMatrix(t *testing.T) {
	out := renderMatrix(matrixFixture())
	for _, want := range []string{
		"matrix  abc123  running  3 workloads x 2 schemes (baseline,dlvp), 50000000 instrs",
		"cells 4/6 done, 1 cache hits, 1 shards stolen",
		"[##>]", // progress strip in shard order
		"stolen",
		"busy time per target",
		"IPC by scheme",
		"partial: 4/6 cells aggregated",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix output missing %q\n%s", want, out)
		}
	}
}

func TestRenderMatrixJSONProvenance(t *testing.T) {
	out, err := renderMatrixJSON(matrixFixture())
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID     string            `json:"id"`
		Shards []shardProvenance `json:"shards"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if got.ID != "abc123" || len(got.Shards) != 3 {
		t.Fatalf("provenance = %+v", got)
	}
	stolen := got.Shards[1]
	if stolen.Assigned != "peer-a" || stolen.Owner != "local" || !stolen.Stolen {
		t.Errorf("stolen shard provenance = %+v", stolen)
	}
	if got.Shards[0].CacheHits != 1 || got.Shards[0].ElapsedMS != 120 {
		t.Errorf("shard 0 provenance = %+v", got.Shards[0])
	}
}

func TestLoadMatrixView(t *testing.T) {
	v := matrixFixture()
	path := filepath.Join(t.TempDir(), "view.json")
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := load[matrix.View](path, "matrix view")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != v.ID || len(got.Shards) != 3 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := load[matrix.View](filepath.Join(t.TempDir(), "missing.json"), "matrix view"); err == nil {
		t.Error("missing file did not error")
	}
}
