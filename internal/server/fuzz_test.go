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

// FuzzMatrixRequest: a POST /v1/matrices body through Handler() never
// panics and never answers 500 or above. A matrix it starts is cancelled
// through POST /v1/matrices/{id}/cancel and awaited until it is terminal,
// so no input outlives its call.
func FuzzMatrixRequest(f *testing.F) {
	seeds := []string{
		`{"workloads":["perlbmk","mcf","soplex"],"schemes":["baseline","dlvp"],"instrs":300000}`,
		`{"workloads":["perlbmk"],"schemes":["dlvp"],"instrs":100000,"sampling":{"intervals":4,"warmup":1000,"budget":2000}}`,
		`{"workloads":["mcf"],"schemes":[],"instrs":2000}`,
	}
	var configs []config.Core
	for _, name := range config.SchemeNames() {
		cfg, _ := config.ByScheme(name)
		configs = append(configs, cfg)
	}
	body, err := json.Marshal(map[string]any{"workloads": []string{"perlbmk"}, "configs": configs, "instrs": 2000})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, string(body))
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	srv := New(Options{})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/matrices", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		var started struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &started); err != nil {
			t.Fatalf("202 body %q: %v", rec.Body.String(), err)
		}
		m, ok := srv.matrices.Get(started.ID)
		if !ok {
			t.Fatalf("matrix %q accepted but not retained", started.ID)
		}
		cancel := httptest.NewRecorder()
		h.ServeHTTP(cancel, httptest.NewRequest(http.MethodPost, "/v1/matrices/"+started.ID+"/cancel", nil))
		if cancel.Code >= 500 {
			t.Fatalf("cancel: status %d: %s", cancel.Code, cancel.Body.String())
		}
		select {
		case <-m.Done():
		case <-time.After(time.Minute):
			t.Fatalf("matrix %q still running a minute after its cancel", started.ID)
		}
	})
}
