package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dlvp/internal/matrix"
	"dlvp/internal/tabletext"
)

// shardProvenance is the -json output row: where a shard actually ran
// and how much of it was served from content-addressed caches.
type shardProvenance struct {
	ID        int     `json:"id"`
	Workload  string  `json:"workload"`
	State     string  `json:"state"`
	Assigned  string  `json:"assigned"`
	Owner     string  `json:"owner,omitempty"`
	Stolen    bool    `json:"stolen,omitempty"`
	Restored  bool    `json:"restored,omitempty"`
	Attempts  int     `json:"attempts"`
	Cells     int     `json:"cells"`
	CacheHits int     `json:"cache_hits"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Error     string  `json:"error,omitempty"`
}

// renderMatrixJSON emits machine-readable shard provenance for scripts:
// the matrix identity plus one row per shard.
func renderMatrixJSON(v *matrix.View) (string, error) {
	shards := make([]shardProvenance, 0, len(v.Shards))
	for _, s := range v.Shards {
		shards = append(shards, shardProvenance{
			ID:        s.ID,
			Workload:  s.Workload,
			State:     s.State,
			Assigned:  s.Assigned,
			Owner:     s.Owner,
			Stolen:    s.Stolen,
			Restored:  s.Restored,
			Attempts:  s.Attempts,
			Cells:     s.Cells,
			CacheHits: s.CacheHits,
			ElapsedMS: s.ElapsedMS,
			Error:     s.Error,
		})
	}
	out, err := json.MarshalIndent(map[string]any{
		"id":          v.ID,
		"status":      v.Status,
		"schemes":     v.Schemes,
		"instrs":      v.Instrs,
		"cells_done":  v.CellsDone,
		"cells_total": v.CellsTotal,
		"cache_hits":  v.CacheHits,
		"stolen":      v.Stolen,
		"resumed":     v.Resumed,
		"elapsed_ms":  v.ElapsedMS,
		"targets":     v.Targets,
		"shards":      shards,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// shardGlyph is the one-character progress mark for a shard state.
func shardGlyph(state string) string {
	switch state {
	case matrix.ShardDone:
		return "#"
	case matrix.ShardRunning:
		return ">"
	case matrix.ShardCancelled:
		return "x"
	case matrix.ShardFailed:
		return "!"
	default:
		return "."
	}
}

// renderMatrix renders one matrix view: header, a progress strip of shard
// states in shard order, the per-shard provenance table, a per-target
// load chart, and the current (partial or final) result tables.
func renderMatrix(v *matrix.View) string {
	out := fmt.Sprintf("matrix  %s  %s  %d workloads x %d schemes (%s), %d instrs",
		v.ID, v.Status, v.Workloads, len(v.Schemes), strings.Join(v.Schemes, ","), v.Instrs)
	if v.Sampled {
		out += ", sampled"
	}
	if v.Resumed {
		out += fmt.Sprintf(", resumed (%d cells restored)", v.Restored)
	}
	out += "\n"
	out += fmt.Sprintf("cells %d/%d done, %d cache hits, %d shards stolen, %.0f ms elapsed\n",
		v.CellsDone, v.CellsTotal, v.CacheHits, v.Stolen, v.ElapsedMS)
	if v.Error != "" {
		out += "error: " + v.Error + "\n"
	}
	if len(v.Shards) == 0 {
		return out + "no shards\n"
	}

	marks := make([]string, len(v.Shards))
	for i, s := range v.Shards {
		marks[i] = shardGlyph(s.State)
	}
	out += fmt.Sprintf("shards  [%s]  (#=done >=running .=pending x=cancelled !=failed)\n\n",
		strings.Join(marks, ""))

	t := &tabletext.Table{
		Header: []string{"shard", "workload", "state", "assigned", "owner", "flags",
			"attempts", "cells", "cache", "ms"},
	}
	perOwner := map[string]float64{}
	for _, s := range v.Shards {
		var flags []string
		if s.Stolen {
			flags = append(flags, "stolen")
		}
		if s.Restored {
			flags = append(flags, "restored")
		}
		if s.Error != "" {
			flags = append(flags, "err: "+s.Error)
		}
		owner := s.Owner
		if owner == "" {
			owner = "-"
		}
		t.AddRow(
			fmt.Sprintf("%d", s.ID), s.Workload, s.State, s.Assigned, owner,
			strings.Join(flags, ","),
			fmt.Sprintf("%d", s.Attempts),
			fmt.Sprintf("%d", s.Cells),
			fmt.Sprintf("%d", s.CacheHits),
			fmt.Sprintf("%.0f", s.ElapsedMS),
		)
		if s.Owner != "" && s.State == matrix.ShardDone {
			perOwner[s.Owner] += s.ElapsedMS
		}
	}
	out += t.String()

	if len(perOwner) > 1 {
		chart := &tabletext.Chart{Title: "busy time per target", Unit: " ms"}
		owners := make([]string, 0, len(perOwner))
		for o := range perOwner {
			owners = append(owners, o)
		}
		sort.Strings(owners)
		for _, o := range owners {
			chart.Add(o, perOwner[o])
		}
		out += "\n" + chart.String()
	}

	for _, tbl := range v.Tables {
		out += "\n" + tbl.String()
	}
	return out
}
