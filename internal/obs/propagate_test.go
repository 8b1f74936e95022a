package obs

import "testing"

func TestTraceParentRoundTrip(t *testing.T) {
	for _, tc := range []struct{ trace, span string }{
		{NewTraceID(), NewSpanID()},
		{"sweep-2026-08", NewSpanID()}, // dashes in the trace ID survive
		{"a-01-b", "0123456789abcdef"}, // trace ID ending like the suffix
		{"x_y.z", ""},                  // no parent -> zero span on the wire
		{"sweep-trace-1", NewSpanID()},
	} {
		hdr := FormatTraceParent(tc.trace, tc.span)
		if hdr == "" {
			t.Fatalf("FormatTraceParent(%q, %q) empty", tc.trace, tc.span)
		}
		gotTrace, gotSpan, ok := ParseTraceParent(hdr)
		if !ok {
			t.Fatalf("ParseTraceParent(%q) failed", hdr)
		}
		if gotTrace != tc.trace || gotSpan != tc.span {
			t.Errorf("round trip %q: got (%q, %q), want (%q, %q)", hdr, gotTrace, gotSpan, tc.trace, tc.span)
		}
	}
}

func TestFormatTraceParentRejectsBadTraceID(t *testing.T) {
	if hdr := FormatTraceParent("has space", NewSpanID()); hdr != "" {
		t.Errorf("got %q, want empty for invalid trace ID", hdr)
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-abc",                     // no span/flags
		"01-abc-0123456789abcdef-01", // unknown version
		"00-abc-0123456789abcdef-00", // unknown flags
		"00-abc-NOTHEX1234567890-01", // bad span ID
		"00--0123456789abcdef-01",    // empty trace ID
		"00-has space-0123456789abcdef-01",
	} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) = ok, want rejection", bad)
		}
	}
}

// FuzzParseTraceParent feeds arbitrary header values to the parser: it
// must never panic, and every accepted header must round-trip through
// FormatTraceParent to the same (trace ID, parent span ID) pair.
func FuzzParseTraceParent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-sweep-2026-08-0000000000000000-01")
	f.Add(" 00-a--00f067aa0ba902b7-01\t")
	f.Fuzz(func(t *testing.T, v string) {
		id, span, ok := ParseTraceParent(v)
		if !ok {
			return
		}
		h := FormatTraceParent(id, span)
		if id2, span2, ok2 := ParseTraceParent(h); !ok2 || id2 != id || span2 != span {
			t.Fatalf("%q parsed as (%q, %q), formatted %q, reparsed as (%q, %q, %v)",
				v, id, span, h, id2, span2, ok2)
		}
	})
}
