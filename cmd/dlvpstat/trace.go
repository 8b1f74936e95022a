package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"dlvp/internal/obs"
)

// traceDoc is the GET /v1/traces/{id}?cluster=1 payload: the assembled
// cross-process tree plus which instances contributed and which could not
// be scraped.
type traceDoc struct {
	ID        string   `json:"id"`
	Cluster   bool     `json:"cluster"`
	Instances []string `json:"instances"`
	Degraded  []struct {
		Instance string `json:"instance"`
		Error    string `json:"error"`
	} `json:"degraded"`
	obs.Assembled
}

// loadTraceDoc resolves the trace argument: a saved payload ("-" for
// stdin, or a file path), a full URL, or a bare trace ID resolved against
// -server. Daemon URLs get ?cluster=1 appended when no query is present,
// so `dlvpstat trace <id>` always renders the assembled cluster view.
func loadTraceDoc(src, server string) (*traceDoc, error) {
	switch {
	case isURL(src):
		if !strings.Contains(src, "?") {
			src += "?cluster=1"
		}
	case src != "-":
		if _, err := os.Stat(src); err != nil {
			if server == "" {
				return nil, fmt.Errorf("%s: not a file; pass -server to resolve it as a trace ID", src)
			}
			src = strings.TrimSuffix(server, "/") + "/v1/traces/" + url.PathEscape(src) + "?cluster=1"
		}
	}
	data, err := readSource(src)
	if err != nil {
		return nil, err
	}
	return decodeTraceDoc(src, data)
}

// decodeTraceDoc decodes an assembled cluster payload, falling back to a
// plain single-node GET /v1/traces/{id} payload (whose flat span list is
// assembled locally) so saved pre-federation traces still render.
func decodeTraceDoc(src string, data []byte) (*traceDoc, error) {
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err == nil && len(doc.Roots) > 0 {
		return &doc, nil
	}
	var view obs.TraceView
	if err := json.Unmarshal(data, &view); err != nil || len(view.Spans) == 0 {
		return nil, fmt.Errorf("%s: not a trace payload (expected ?cluster=1 tree or /v1/traces/{id} spans)", src)
	}
	doc = traceDoc{ID: view.ID}
	doc.Assembled = obs.Assemble([]obs.InstanceSpans{{Instance: "local", Spans: view.Spans}})
	doc.Instances = []string{"local"}
	return &doc, nil
}

// segment buckets for the waterfall summary. Each span contributes its
// exclusive time (duration minus its children's) to exactly one bucket.
const (
	segQueue   = "queue-wait"
	segSim     = "sim"
	segNetwork = "network"
	segSteal   = "steal"
	segOther   = "other"
)

// classifySpan maps one span to its waterfall segment. Queue wait is the
// runner's admission wait; sim is engine execution (detailed, capture,
// replay, sampled); network is dispatcher routing and remote attempts;
// steal is shard work that ran via work-stealing on a non-assigned target.
func classifySpan(n *obs.TreeNode) string {
	switch {
	case n.Name == "runner.queue":
		return segQueue
	case n.Marker == obs.MarkerStolen:
		return segSteal
	case strings.HasPrefix(n.Name, "runner."):
		return segSim
	case strings.HasPrefix(n.Name, "dispatch."):
		return segNetwork
	default:
		return segOther
	}
}

// exclusiveMS is a span's self time: its duration minus the portion its
// children cover (clamped at zero; remote clocks can disagree).
func exclusiveMS(n *obs.TreeNode) float64 {
	child := 0.0
	for _, c := range n.Children {
		child += c.DurationMS
	}
	if child > n.DurationMS {
		return 0
	}
	return n.DurationMS - child
}

// markerTag renders a span's marker for the waterfall line.
func markerTag(marker string) string {
	switch marker {
	case obs.MarkerRetry:
		return " [retry]"
	case obs.MarkerStolen:
		return " [stolen]"
	case "":
		return ""
	default:
		return " [" + marker + "]"
	}
}

const waterfallWidth = 40

// renderTrace renders the distributed waterfall: one line per span,
// indented by tree depth, with a bar positioned on the shared time axis,
// followed by the per-segment time split and per-instance contribution.
func renderTrace(doc *traceDoc) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace  %s: %d spans", doc.ID, doc.Spans)
	if len(doc.Instances) > 0 {
		fmt.Fprintf(&b, " across %d instances", len(doc.Instances))
	}
	fmt.Fprintf(&b, ", %.2fms", doc.DurationMS)
	if doc.Orphans > 0 {
		fmt.Fprintf(&b, " (%d orphaned spans promoted to roots)", doc.Orphans)
	}
	b.WriteByte('\n')
	for _, d := range doc.Degraded {
		fmt.Fprintf(&b, "degraded: %s: %s\n", d.Instance, d.Error)
	}
	if doc.Spans == 0 {
		return b.String() + "no spans recorded\n"
	}
	b.WriteByte('\n')

	total := doc.DurationMS
	if total <= 0 {
		total = 1
	}
	segs := map[string]float64{}
	type line struct {
		bar, label, detail string
	}
	var lines []line
	var walk func(n *obs.TreeNode, depth int)
	walk = func(n *obs.TreeNode, depth int) {
		segs[classifySpan(n)] += exclusiveMS(n)
		off := n.Start.Sub(doc.Start)
		startCol := int(float64(off) / float64(time.Millisecond) / total * waterfallWidth)
		barW := int(n.DurationMS / total * float64(waterfallWidth))
		if startCol > waterfallWidth-1 {
			startCol = waterfallWidth - 1
		}
		if barW < 1 {
			barW = 1
		}
		if startCol+barW > waterfallWidth {
			barW = waterfallWidth - startCol
		}
		bar := strings.Repeat(" ", startCol) + strings.Repeat("=", barW) +
			strings.Repeat(" ", waterfallWidth-startCol-barW)
		label := strings.Repeat("  ", depth) + n.Name + markerTag(n.Marker)
		detail := fmt.Sprintf("%8.2fms  %s", n.DurationMS, n.Instance)
		if wl := n.Attrs["workload"]; wl != "" {
			detail += "  " + wl
		}
		lines = append(lines, line{bar, label, detail})
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range doc.Roots {
		walk(r, 0)
	}

	labelW := 0
	for _, l := range lines {
		if len(l.label) > labelW {
			labelW = len(l.label)
		}
	}
	for _, l := range lines {
		fmt.Fprintf(&b, "%-*s |%s| %s\n", labelW, l.label, l.bar, l.detail)
	}

	b.WriteByte('\n')
	b.WriteString("time split (exclusive):\n")
	totalSeg := 0.0
	for _, v := range segs {
		totalSeg += v
	}
	for _, name := range []string{segQueue, segSim, segNetwork, segSteal, segOther} {
		v, ok := segs[name]
		if !ok {
			continue
		}
		pct := 0.0
		if totalSeg > 0 {
			pct = v / totalSeg * 100
		}
		fmt.Fprintf(&b, "  %-10s %9.2fms  %5.1f%%\n", name, v, pct)
	}

	if len(doc.Instances) > 1 {
		counts := map[string]int{}
		var count func(n *obs.TreeNode)
		count = func(n *obs.TreeNode) {
			counts[n.Instance]++
			for _, c := range n.Children {
				count(c)
			}
		}
		for _, r := range doc.Roots {
			count(r)
		}
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("instances:\n")
		for _, name := range names {
			fmt.Fprintf(&b, "  %-40s %d spans\n", name, counts[name])
		}
	}
	return b.String()
}
