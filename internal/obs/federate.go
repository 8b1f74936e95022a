package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Exposition is one instance's contribution to a federated scrape: the
// raw Prometheus text its /metrics produced, or the error that prevented
// scraping it. Instances with Err set are annotated in the merged output
// (comment + dlvpd_federation_peer_up 0) instead of failing the scrape.
type Exposition struct {
	Instance string
	Text     string
	Err      error
}

// PeerUpMetric is the synthetic gauge MergeExpositions emits for every
// instance: 1 scraped, 0 degraded. Alerting on it catches a peer whose
// samples silently vanished from the federated view.
const PeerUpMetric = "dlvpd_federation_peer_up"

// mergedFamily groups one metric family's samples across instances so the
// merged exposition keeps the text-format invariant that all samples of a
// family form one block under a single HELP/TYPE.
type mergedFamily struct {
	name    string
	help    string // first HELP line seen wins
	typ     string // first TYPE line seen wins
	samples []string
}

// MergeExpositions merges per-instance expositions into one Prometheus
// text document: every sample line gains an instance="<name>" label
// (prepended, existing labels kept; a peer's own instance label becomes
// exported_instance, as Prometheus federation renames it), HELP/TYPE
// metadata is deduplicated across instances with first-seen text winning,
// and families are regrouped so each appears exactly once. Degraded
// instances contribute a leading annotation comment and a zero
// PeerUpMetric sample rather than an error.
//
// Peer text is untrusted: metadata lines without a family name, sample
// lines whose label set does not parse, and a peer's own PeerUpMetric
// samples and metadata are dropped, so every instance has exactly one
// PeerUpMetric sample, the synthetic one.
func MergeExpositions(parts []Exposition) string {
	var b strings.Builder
	fams := make(map[string]*mergedFamily)
	var order []string
	get := func(name string) *mergedFamily {
		f, ok := fams[name]
		if !ok {
			f = &mergedFamily{name: name}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}

	var degraded []Exposition
	for _, part := range parts {
		if part.Err != nil {
			degraded = append(degraded, part)
			continue
		}
		// cur tracks the family the stream is inside so histogram
		// _bucket/_sum/_count samples group under their base family.
		var cur *mergedFamily
		for _, line := range strings.Split(part.Text, "\n") {
			line = strings.TrimRight(line, "\r")
			if line == "" {
				continue
			}
			if meta, ok := strings.CutPrefix(line, "# HELP "); ok {
				name, help, _ := strings.Cut(meta, " ")
				if name == "" || name == PeerUpMetric {
					continue
				}
				cur = get(name)
				if cur.help == "" {
					cur.help = help
				}
				continue
			}
			if meta, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, typ, _ := strings.Cut(meta, " ")
				if name == "" || name == PeerUpMetric {
					continue
				}
				cur = get(name)
				if cur.typ == "" {
					cur.typ = typ
				}
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue // free-form comments do not survive merging
			}
			name := sampleName(line)
			if name == "" || name == PeerUpMetric {
				continue
			}
			sample, ok := injectInstance(line, part.Instance)
			if !ok {
				continue
			}
			if cur == nil || !sampleInFamily(name, cur) {
				cur = get(name)
			}
			cur.samples = append(cur.samples, sample)
		}
	}

	// Degraded annotations lead the document so a human sees at a glance
	// that the view is partial.
	sort.Slice(degraded, func(i, j int) bool { return degraded[i].Instance < degraded[j].Instance })
	for _, d := range degraded {
		fmt.Fprintf(&b, "# federation: instance %q unavailable: %s\n",
			d.Instance, strings.ReplaceAll(d.Err.Error(), "\n", " "))
	}

	up := get(PeerUpMetric)
	up.help = "Whether the federated scrape reached this instance (1 scraped, 0 degraded)."
	up.typ = "gauge"
	for _, part := range parts {
		v := 1
		if part.Err != nil {
			v = 0
		}
		up.samples = append(up.samples,
			fmt.Sprintf("%s{%s} %d", PeerUpMetric, instancePair(part.Instance), v))
	}

	for _, name := range order {
		f := fams[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		if f.typ != "" {
			fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		}
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// sampleName extracts the metric name from a sample line ("" when the
// line has no name).
func sampleName(line string) string {
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		return line[:i]
	}
	return ""
}

// sampleInFamily reports whether a sample named name belongs to family f —
// either exactly, or as a histogram/summary component of it.
func sampleInFamily(name string, f *mergedFamily) bool {
	if name == f.name {
		return true
	}
	rest, ok := strings.CutPrefix(name, f.name)
	if !ok {
		return false
	}
	return rest == "_bucket" || rest == "_sum" || rest == "_count"
}

// instancePair is the escaped instance="<name>" label pair every merged
// sample of an instance carries, so all of them join on it.
func instancePair(instance string) string {
	return `instance="` + escapeLabel(instance) + `"`
}

// injectInstance prepends instance="<name>" to a sample line's label set,
// creating one when the sample is bare, and renames a label the peer
// itself called instance to exported_instance. ok is false when the label
// set does not parse.
func injectInstance(line, instance string) (string, bool) {
	pair := instancePair(instance)
	i := strings.IndexAny(line, "{ ")
	if line[i] == ' ' {
		return line[:i] + "{" + pair + "}" + line[i:], true
	}
	var b strings.Builder
	b.WriteString(line[:i+1])
	b.WriteString(pair)
	rest := line[i+1:]
	if !strings.HasPrefix(rest, "}") {
		b.WriteByte(',')
	}
	// Copy each name="value" pair through, validating as it goes.
	for !strings.HasPrefix(rest, "}") {
		eq := strings.Index(rest, `="`)
		if eq < 0 || !labelName(rest[:eq]) {
			return "", false
		}
		if rest[:eq] == "instance" {
			b.WriteString("exported_")
		}
		v := eq + 2
		for ; v < len(rest) && rest[v] != '"'; v++ {
			if rest[v] == '\\' {
				v++
			}
		}
		if v++; v < len(rest) && rest[v] == ',' {
			v++
		} else if v >= len(rest) || rest[v] != '}' {
			return "", false
		}
		b.WriteString(rest[:v])
		rest = rest[v:]
	}
	b.WriteString(rest)
	return b.String(), true
}

// labelName reports whether s is a valid Prometheus label name.
func labelName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '_' && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return s != ""
}
