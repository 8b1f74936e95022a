package obs

import (
	"errors"
	"regexp"
	"strings"
	"testing"
)

func TestMergeExpositionsInjectsInstanceLabels(t *testing.T) {
	a := NewRegistry()
	a.Counter("reqs_total", "Requests.", "route").With("/v1/runs").Add(3)
	a.GaugeFunc("up_seconds", "Uptime.", func() float64 { return 7 })
	b := NewRegistry()
	b.Counter("reqs_total", "Requests.", "route").With("/v1/runs").Add(5)

	var ta, tb strings.Builder
	a.WritePrometheus(&ta)
	b.WritePrometheus(&tb)
	out := MergeExpositions([]Exposition{
		{Instance: "local", Text: ta.String()},
		{Instance: "http://peer:1", Text: tb.String()},
	})

	for _, want := range []string{
		`reqs_total{instance="local",route="/v1/runs"} 3`,
		`reqs_total{instance="http://peer:1",route="/v1/runs"} 5`,
		`up_seconds{instance="local"} 7`,
		`dlvpd_federation_peer_up{instance="local"} 1`,
		`dlvpd_federation_peer_up{instance="http://peer:1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE for a family shared across instances appears exactly once.
	if got := strings.Count(out, "# TYPE reqs_total counter"); got != 1 {
		t.Errorf("TYPE reqs_total appears %d times, want 1:\n%s", got, out)
	}
	validateExposition(t, out)
}

func TestMergeExpositionsGroupsHistogramFamilies(t *testing.T) {
	mk := func() string {
		r := NewRegistry()
		r.Histogram("lat_seconds", "Latency.", []float64{1}).With().Observe(0.5)
		r.Counter("other_total", "Other.").With().Inc()
		var b strings.Builder
		r.WritePrometheus(&b)
		return b.String()
	}
	out := MergeExpositions([]Exposition{
		{Instance: "a", Text: mk()},
		{Instance: "b", Text: mk()},
	})
	// All lat_seconds samples (both instances) must sit in one block under
	// one TYPE line — the validator enforces block integrity.
	validateExposition(t, out)
	if got := strings.Count(out, "# TYPE lat_seconds histogram"); got != 1 {
		t.Errorf("TYPE lat_seconds appears %d times, want 1:\n%s", got, out)
	}
	for _, want := range []string{
		`lat_seconds_bucket{instance="a",le="1"} 1`,
		`lat_seconds_sum{instance="b"} 0.5`,
		`lat_seconds_count{instance="a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestMergeExpositionsAnnotatesDegradedPeers(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "h.").With().Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	out := MergeExpositions([]Exposition{
		{Instance: "local", Text: b.String()},
		{Instance: "http://dead:1", Err: errors.New("connection refused")},
	})
	if !strings.Contains(out, `# federation: instance "http://dead:1" unavailable: connection refused`) {
		t.Errorf("degraded annotation missing:\n%s", out)
	}
	if !strings.Contains(out, `dlvpd_federation_peer_up{instance="http://dead:1"} 0`) {
		t.Errorf("peer_up 0 sample missing:\n%s", out)
	}
	if !strings.Contains(out, `ok_total{instance="local"} 1`) {
		t.Errorf("healthy instance samples missing:\n%s", out)
	}
}

func TestMergeExpositionsEscapesInstanceNames(t *testing.T) {
	out := MergeExpositions([]Exposition{
		{Instance: "we\"ird\\name", Text: "m_total 1\n"},
	})
	if !strings.Contains(out, `m_total{instance="we\"ird\\name"} 1`) {
		t.Errorf("instance label not escaped:\n%s", out)
	}
}

// The synthetic peer-up series of an instance whose name holds a quote or
// a backslash carries the same escaped label pair as the instance's own
// samples, healthy or degraded, so the two series join.
func TestMergeExpositionsPeerUpJoinsInstanceSeries(t *testing.T) {
	out := MergeExpositions([]Exposition{
		{Instance: `http://h"1\x`, Text: "foo 3\n"},
		{Instance: `http://d"e\ad`, Err: errors.New("connection refused")},
	})
	for _, want := range []string{
		`foo{instance="http://h\"1\\x"} 3`,
		`dlvpd_federation_peer_up{instance="http://h\"1\\x"} 1`,
		`dlvpd_federation_peer_up{instance="http://d\"e\\ad"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %s in:\n%s", want, out)
		}
	}
}

// labelSetRE matches a merged sample's label set: the instance pair first,
// then well-formed name="value" pairs; labelRE walks the later pairs one
// whole pair at a time, so text inside a quoted value is never read as a
// name.
var (
	labelSetRE = regexp.MustCompile(`^\{instance="(a|b)"((?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*),?\}`)
	labelRE    = regexp.MustCompile(`,([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)
)

// FuzzMergeExpositions merges hostile text from two peers and checks what
// a Prometheus scraper of the result relies on: every sample line's first
// label is its instance and no other label is named instance, every HELP
// and TYPE line names a family and appears at most once per family, and
// each instance has exactly one PeerUpMetric sample.
func FuzzMergeExpositions(f *testing.F) {
	f.Add("# HELP m_total Things.\n# TYPE m_total counter\nm_total{route=\"/x\"} 3\n", "m_total 1\n")
	f.Add("# HELP lat_seconds L.\n# TYPE lat_seconds histogram\nlat_seconds_bucket{le=\"1\"} 1\nlat_seconds_sum 0.5\n", "lat_seconds_count{} 1\n")
	f.Add("# HELP  x\n# TYPE  gauge\n", PeerUpMetric+" 1\n# TYPE "+PeerUpMetric+" counter\n")
	f.Add(`foo{instance="z"} 3`, `foo{a="}\"",instance="q",} 2`+"\nbar{x=\"1\" 2\n")
	f.Add("", `0{A="0,instance="}0`)
	f.Fuzz(func(t *testing.T, a, b string) {
		out := MergeExpositions([]Exposition{{Instance: "a", Text: a}, {Instance: "b", Text: b}})
		meta := map[string]bool{}
		up := map[string]int{}
		for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
			if kind, ok := strings.CutPrefix(line, "# "); ok {
				fields := strings.SplitN(kind, " ", 3)
				if len(fields) < 2 || (fields[0] != "HELP" && fields[0] != "TYPE") || fields[1] == "" {
					t.Fatalf("malformed metadata line %q in:\n%s", line, out)
				}
				key := fields[0] + " " + fields[1]
				if meta[key] {
					t.Fatalf("second %s line for family %q in:\n%s", fields[0], fields[1], out)
				}
				meta[key] = true
				continue
			}
			i := strings.IndexByte(line, '{')
			m := labelSetRE.FindStringSubmatch(line[max(i, 0):])
			if i <= 0 || m == nil {
				t.Fatalf("sample %q does not open with its instance label in:\n%s", line, out)
			}
			for _, l := range labelRE.FindAllStringSubmatch(m[2], -1) {
				if l[1] == "instance" {
					t.Fatalf("sample %q carries a second instance label", line)
				}
			}
			if line[:i] == PeerUpMetric {
				up[m[1]]++
			}
		}
		if up["a"] != 1 || up["b"] != 1 {
			t.Fatalf("%s samples per instance = %v, want one each, in:\n%s", PeerUpMetric, up, out)
		}
	})
}
