package uarch

import (
	"fmt"
	"strings"

	"dlvp/internal/tabletext"
)

// StageTrace records the pipeline timeline of one committed instruction.
type StageTrace struct {
	Seq      uint64
	PC       uint64
	Disasm   string
	Fetch    uint64
	Rename   uint64
	Issue    uint64
	Complete uint64
	Commit   uint64
	// Predicted marks instructions whose destination value was supplied by
	// the VPE at rename.
	Predicted bool
}

// EnableStageTrace records the pipeline timeline of the first n committed
// instructions at or after seq start. Call before Run.
func (c *Core) EnableStageTrace(start uint64, n int) {
	c.traceStart = start
	c.traceWant = n
	c.stageTraces = make([]StageTrace, 0, n)
}

// StageTraces returns the recorded timelines (valid after Run).
func (c *Core) StageTraces() []StageTrace { return c.stageTraces }

// captureStageTrace is called at commit for every instruction; with stage
// tracing off it costs one nil check and never touches the record.
func (c *Core) captureStageTrace(seq uint64) {
	if c.stageTraces == nil || len(c.stageTraces) >= c.traceWant || seq < c.traceStart {
		return
	}
	rec := c.rec(seq)
	disasm := rec.Op.String()
	if inst := c.prog.InstAt(rec.PC); inst != nil {
		disasm = inst.String()
	}
	w := &c.a.w
	slot := seq & windowMask
	c.stageTraces = append(c.stageTraces, StageTrace{
		Seq:       seq,
		PC:        rec.PC,
		Disasm:    disasm,
		Fetch:     w.fetchCycle[slot],
		Rename:    w.renameCycle[slot],
		Issue:     w.issueCycle[slot],
		Complete:  w.execDone[slot],
		Commit:    c.now,
		Predicted: w.flags[slot]&fVpMade != 0,
	})
}

// FormatStageTraces renders timelines as an aligned table plus a classic
// pipeline diagram (F/R/I/E/C columns over cycles), making value
// prediction's effect visible: consumers of a predicted load issue before
// the load completes.
func FormatStageTraces(traces []StageTrace) string {
	if len(traces) == 0 {
		return "no stage traces recorded\n"
	}
	t := &tabletext.Table{
		Title:  "Pipeline timeline (cycles)",
		Header: []string{"seq", "pc", "instruction", "fetch", "rename", "issue", "done", "commit", "vp"},
	}
	base := traces[0].Fetch
	for _, s := range traces {
		vp := ""
		if s.Predicted {
			vp = "*"
		}
		t.AddRow(s.Seq, fmt.Sprintf("%x", s.PC), s.Disasm,
			s.Fetch-base, s.Rename-base, s.Issue-base, s.Complete-base, s.Commit-base, vp)
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteByte('\n')

	// ASCII pipeline diagram, clamped to a readable span.
	last := traces[len(traces)-1].Commit
	span := int(last - base + 1)
	if span > 90 {
		span = 90
	}
	for _, s := range traces {
		row := make([]byte, span)
		for i := range row {
			row[i] = '.'
		}
		mark := func(cyc uint64, ch byte) {
			i := int(cyc - base)
			if i >= 0 && i < span {
				row[i] = ch
			}
		}
		mark(s.Fetch, 'F')
		mark(s.Rename, 'R')
		mark(s.Issue, 'I')
		mark(s.Complete, 'E')
		mark(s.Commit, 'C')
		name := s.Disasm
		if len(name) > 24 {
			name = name[:24]
		}
		sb.WriteString(fmt.Sprintf("%6d %-24s %s\n", s.Seq, name, row))
	}
	sb.WriteString("F=fetch R=rename I=issue E=complete C=commit\n")
	return sb.String()
}
