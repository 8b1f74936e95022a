package main

import (
	"fmt"
	"strings"

	"dlvp/internal/siteprof"
	"dlvp/internal/tabletext"
)

// sitesShowLimit caps the ranked table; the profile is already ordered
// worst-first, so the tail adds noise, not insight.
const sitesShowLimit = 25

// causeGlyphs maps each cause to the character filling its share of a
// site's breakdown bar, in taxonomy order: correct is solid, mispredict
// causes are upper-case letters, no-prediction causes lower-case.
var causeGlyphs = [siteprof.NumCauses]byte{
	'#', // correct
	'S', // store_conflict
	'A', // addr_mispredict
	'T', // tag_alias
	'V', // value_wrong
	'm', // apt_miss
	'c', // confidence_dropped
	'l', // lscd_filtered
	'p', // paq_drop
	'.', // unpredicted
}

// causeBar renders a width-character bar whose segments are proportional
// to the site's cause mix. Every non-zero cause gets at least one cell so
// rare-but-present causes stay visible; the largest share absorbs the
// rounding remainder.
func causeBar(c siteprof.Counts, width int) string {
	if c.Eligible == 0 {
		return strings.Repeat(" ", width)
	}
	cells := make([]int, siteprof.NumCauses)
	used, biggest := 0, 0
	for i, n := range c.Causes {
		if n == 0 {
			continue
		}
		w := int(uint64(width) * n / c.Eligible)
		if w == 0 {
			w = 1
		}
		cells[i] = w
		used += w
		if c.Causes[i] > c.Causes[biggest] || cells[biggest] == 0 {
			biggest = i
		}
	}
	// Fit to width: the dominant cause gives or takes the remainder.
	cells[biggest] += width - used
	if cells[biggest] < 1 {
		cells[biggest] = 1
	}
	var b strings.Builder
	for i, w := range cells {
		for k := 0; k < w && b.Len() < width; k++ {
			b.WriteByte(causeGlyphs[i])
		}
	}
	for b.Len() < width {
		b.WriteByte(' ')
	}
	return b.String()[:width]
}

// renderSites renders one profile: header, the ranked per-site table with
// cause-breakdown bars, and the overflow/total reconciliation line.
func renderSites(p *siteprof.Profile) string {
	out := fmt.Sprintf("sites  %s (%s), %d tracked of max %d, %d instrs",
		p.Workload, p.Scheme, len(p.Sites), p.MaxSites, p.Instructions)
	if p.EvictedSites > 0 {
		out += fmt.Sprintf(", %d evicted into overflow", p.EvictedSites)
	}
	if p.Partial {
		out += ", partial"
	}
	out += "\n"
	if len(p.Sites) == 0 && p.Overflow.Eligible == 0 {
		return out + "no eligible loads recorded\n"
	}
	out += "bar: #=correct S=store-conflict A=addr-mispredict T=tag-alias V=value-wrong\n" +
		"     m=apt-miss c=low-confidence l=lscd-filtered p=paq-drop .=unpredicted\n\n"

	t := &tabletext.Table{
		Header: []string{"rank", "pc", "eligible", "cov%", "acc%", "mispred",
			"top cause", "conflict%", "flush-cyc/ki", "breakdown"},
	}
	shown := len(p.Sites)
	if shown > sitesShowLimit {
		shown = sitesShowLimit
	}
	for i := 0; i < shown; i++ {
		s := p.Sites[i]
		top := "-"
		if cause, n, ok := s.TopCause(); ok {
			top = fmt.Sprintf("%s (%d)", cause, n)
		}
		t.AddRow(
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("0x%x", s.PC),
			fmt.Sprintf("%d", s.Eligible),
			s.Coverage(), s.Accuracy(),
			fmt.Sprintf("%d", s.Mispredicts()),
			top,
			s.ConflictShare(),
			fmt.Sprintf("%.2f", s.FlushCyclesPerKiloInstr(p.Instructions)),
			causeBar(s.Counts, 20),
		)
	}
	out += t.String()
	if len(p.Sites) > shown {
		out += fmt.Sprintf("... %d more tracked sites not shown\n", len(p.Sites)-shown)
	}
	if p.Overflow.Eligible > 0 {
		out += fmt.Sprintf("overflow bucket: %d eligible, %d mispredicts across %d evicted sites\n",
			p.Overflow.Eligible, p.Overflow.Mispredicts(), p.EvictedSites)
	}
	tot := p.Totals()
	out += fmt.Sprintf("total: %d eligible, %.2f%% coverage, %.2f%% accuracy, %d est. flush cycles\n",
		tot.Eligible, tot.Coverage(), tot.Accuracy(), tot.FlushCycles)
	return out
}

// renderSitesDiff compares two profiles site-by-site and flags the shared
// site with the largest accuracy regression from A to B.
func renderSitesDiff(a, b *siteprof.Profile) string {
	out := fmt.Sprintf("sites diff  A: %s (%s), %d sites  vs  B: %s (%s), %d sites\n",
		a.Workload, a.Scheme, len(a.Sites), b.Workload, b.Scheme, len(b.Sites))
	rows := siteprof.Diff(a, b)
	if len(rows) == 0 {
		return out + "no shared sites\n"
	}

	t := &tabletext.Table{
		Header: []string{"pc", "elig A", "elig B", "acc% A", "acc% B", "dacc",
			"conflict% A", "conflict% B", ""},
	}
	worst, regressed := siteprof.LargestAccuracyRegression(a, b)
	shown := len(rows)
	if shown > sitesShowLimit {
		shown = sitesShowLimit
	}
	for _, row := range rows[:shown] {
		mark := ""
		if regressed && row.PC == worst.PC {
			mark = "<-- largest accuracy regression"
		}
		t.AddRow(
			fmt.Sprintf("0x%x", row.PC),
			fmt.Sprintf("%d", row.A.Eligible), fmt.Sprintf("%d", row.B.Eligible),
			row.A.Accuracy(), row.B.Accuracy(),
			fmt.Sprintf("%+.2f", row.AccuracyDelta),
			row.A.ConflictShare(), row.B.ConflictShare(),
			mark,
		)
	}
	out += t.String()
	if len(rows) > shown {
		out += fmt.Sprintf("... %d more shared sites not shown\n", len(rows)-shown)
	}
	if regressed {
		out += fmt.Sprintf("largest accuracy regression: pc 0x%x, %.2f%% -> %.2f%% (%+.2f pts)\n",
			worst.PC, worst.A.Accuracy(), worst.B.Accuracy(), worst.AccuracyDelta)
	} else {
		out += "no per-site accuracy regression between the runs\n"
	}
	return out
}
