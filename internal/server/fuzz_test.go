package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dlvp/internal/config"
)

// FuzzRunRequest sends fuzzed POST /v1/runs bodies through the server's
// handler. Whatever the body, the server must answer without a panic and
// without a server error, except 504 for a run cut short by the request
// timeout: a configuration that passes validation and still panics the
// core reaches the recover middleware and surfaces as a 500. The seeds are
// README's example bodies, every scheme preset as an explicit config and a
// sampled run. Bodies that set "async" are skipped, so that no job
// outlives its call.
func FuzzRunRequest(f *testing.F) {
	seeds := []string{
		`{"workload":"perlbmk","scheme":"dlvp","instrs":300000}`,
		`{"workload":"mcf","scheme":"dlvp"}`,
		`{"workload":"mcf","scheme":"dlvp","instrs":1000000,"sampling":{"intervals":4,"warmup":1000,"budget":2000}}`,
	}
	for _, name := range config.SchemeNames() {
		cfg, _ := config.ByScheme(name)
		body, err := json.Marshal(map[string]any{"workload": "perlbmk", "config": cfg, "instrs": 2000})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(body))
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	srv := New(Options{RequestTimeout: 5 * time.Millisecond})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		// Decoded as the handler decodes it: the first JSON value wins. A
		// body that fails to decode gets a 400 and spawns nothing.
		var probe struct {
			Async bool `json:"async"`
		}
		_ = json.NewDecoder(bytes.NewReader(body)).Decode(&probe)
		if probe.Async {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
	})
}
