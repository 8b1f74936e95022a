package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/runner"
	"dlvp/internal/tracecache"
)

const testInstrs = 4_000

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Runner: runner.New(runner.Options{})})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if body := decode[map[string]string](t, resp); body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[struct {
		Workloads []struct {
			Name  string `json:"name"`
			Suite string `json:"suite"`
		} `json:"workloads"`
	}](t, resp)
	if len(body.Workloads) < 40 {
		t.Errorf("workload pool too small: %d", len(body.Workloads))
	}
}

func TestRunEndpointAndCaching(t *testing.T) {
	_, ts := newTestServer(t)
	req := map[string]any{"workload": "perlbmk", "scheme": "dlvp", "instrs": testInstrs}

	first := decode[runResponse](t, postJSON(t, ts.URL+"/v1/runs", req))
	if first.Cached {
		t.Error("first run reported cached")
	}
	if first.Stats.Instructions == 0 || first.Stats.Workload != "perlbmk" {
		t.Errorf("stats = %+v", first.Stats)
	}

	second := decode[runResponse](t, postJSON(t, ts.URL+"/v1/runs", req))
	if !second.Cached {
		t.Error("repeat run not served from cache")
	}
	fb, _ := json.Marshal(first.Stats)
	sb, _ := json.Marshal(second.Stats)
	if !bytes.Equal(fb, sb) {
		t.Error("cached stats differ from original")
	}

	// The hit must be observable on the stats endpoint.
	stats := decode[ServerStats](t, mustGet(t, ts.URL+"/v1/stats"))
	if stats.Runner.CacheHits < 1 {
		t.Errorf("runner cache hits = %d, want >= 1", stats.Runner.CacheHits)
	}
	if stats.Runner.HitRatio() <= 0 {
		t.Error("hit ratio not observable")
	}
}

func TestRunEndpointRejectsUnknowns(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/runs", map[string]any{"workload": "ghost", "instrs": testInstrs})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload: status = %d, want 400", resp.StatusCode)
	}
	if body := decode[errorBody](t, resp); len(body.Known) == 0 || !strings.Contains(body.Error, "ghost") {
		t.Errorf("error body = %+v, want known-workload list", body)
	}

	resp = postJSON(t, ts.URL+"/v1/runs", map[string]any{"workload": "perlbmk", "scheme": "warp", "instrs": testInstrs})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown scheme: status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/runs", map[string]any{"workload": "perlbmk", "instrs": 1 << 60})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-cap instrs: status = %d, want 400", resp.StatusCode)
	}
}

// A core config the simulator cannot run gets 400 naming the field,
// sync and async, on /v1/runs and under /v1/matrices configs, and the
// daemon stays up with no job left running. Unvalidated, CommitWidth 0 or
// ROBSize 0 spun a worker forever, and L1D SizeBytes 0 panicked the core:
// a sync run leaked a running job, and the async and matrix forms killed
// the process from a goroutine.
func TestUnrunnableConfigsRejected(t *testing.T) {
	s, ts := newTestServer(t)
	for field, edit := range map[string]func(*config.Core){
		"CommitWidth":       func(c *config.Core) { c.CommitWidth = 0 },
		"ROBSize":           func(c *config.Core) { c.ROBSize = 0 },
		"Mem.L1D.SizeBytes": func(c *config.Core) { c.Mem.L1D.SizeBytes = 0 },
	} {
		cfg := config.Baseline()
		edit(&cfg)
		for _, async := range []bool{false, true} {
			resp := postJSON(t, ts.URL+"/v1/runs", map[string]any{
				"workload": "perlbmk", "config": cfg, "instrs": testInstrs, "async": async,
			})
			if body := decode[errorBody](t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, field) {
				t.Errorf("run with bad %s (async %v): status %d, error %q; want 400 naming it", field, async, resp.StatusCode, body.Error)
			}
		}
		resp := postJSON(t, ts.URL+"/v1/matrices", map[string]any{
			"configs": map[string]any{"bad": cfg}, "workloads": []string{"perlbmk"}, "instrs": testInstrs,
		})
		if body := decode[errorBody](t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, field) {
			t.Errorf("matrix with bad %s: status %d, error %q; want 400 naming it", field, resp.StatusCode, body.Error)
		}
	}
	if resp := mustGet(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the rejected bodies: %d", resp.StatusCode)
	}
	if st := s.runner.Stats(); st.JobsRunning != 0 || st.SimsExecuted != 0 {
		t.Errorf("runner after the rejected bodies: %d running, %d executed; want none", st.JobsRunning, st.SimsExecuted)
	}
}

// A "sampling" object on /v1/runs selects checkpointed sampled
// simulation: the response carries the SampledInfo provenance block, an
// invalid spec is a 400, and sampled results never alias full ones in
// the caches.
func TestRunEndpointSampling(t *testing.T) {
	_, ts := newTestServer(t)
	const instrs = 40_000
	full := decode[runResponse](t, postJSON(t, ts.URL+"/v1/runs",
		map[string]any{"workload": "perlbmk", "scheme": "dlvp", "instrs": instrs}))
	if full.Sampled != nil {
		t.Errorf("full run carries sampled info: %+v", full.Sampled)
	}

	req := map[string]any{"workload": "perlbmk", "scheme": "dlvp", "instrs": instrs,
		"sampling": map[string]any{"intervals": 4}}
	resp := postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled run: status = %d", resp.StatusCode)
	}
	sampled := decode[runResponse](t, resp)
	if sampled.Cached {
		t.Error("sampled run aliased the full run's cache entry")
	}
	info := sampled.Sampled
	if info == nil {
		t.Fatal("sampled response carries no sampled block")
	}
	if info.Intervals != 4 || info.SpanInstrs != instrs || info.MeasuredTotal == 0 {
		t.Errorf("sampled info = %+v", info)
	}
	if sampled.Stats.Instructions != info.MeasuredTotal {
		t.Errorf("stats over %d instrs, want the measured total %d", sampled.Stats.Instructions, info.MeasuredTotal)
	}

	bad := postJSON(t, ts.URL+"/v1/runs", map[string]any{"workload": "perlbmk", "instrs": instrs,
		"sampling": map[string]any{"intervals": -3}})
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid sampling spec: status = %d, want 400", bad.StatusCode)
	}
	if body := decode[errorBody](t, bad); !strings.Contains(body.Error, "intervals") {
		t.Errorf("error body = %+v, want the spec complaint", body)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// tab4 is simulation-free: a pure round-trip of the artifact shape.
	resp := postJSON(t, ts.URL+"/v1/experiments/tab4", map[string]any{"instrs": testInstrs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := decode[experimentResponse](t, resp)
	if body.Artifact == nil || body.Artifact.ID != "tab4" || len(body.Artifact.Tables) == 0 {
		t.Fatalf("artifact = %+v", body.Artifact)
	}
	if body.Artifact.Tables[0].Title == "" || len(body.Artifact.Tables[0].Rows) == 0 {
		t.Errorf("table shape = %+v", body.Artifact.Tables[0])
	}
}

// TestExperimentCachesArtifacts locks the acceptance criterion: a repeated
// identical experiment request is served from the result cache, observably.
func TestExperimentCachesArtifacts(t *testing.T) {
	_, ts := newTestServer(t)
	req := map[string]any{"instrs": testInstrs, "workloads": []string{"perlbmk", "nat"}}

	first := decode[experimentResponse](t, postJSON(t, ts.URL+"/v1/experiments/fig4", req))
	if first.Cached {
		t.Error("first request reported cached")
	}
	second := decode[experimentResponse](t, postJSON(t, ts.URL+"/v1/experiments/fig4", req))
	if !second.Cached {
		t.Error("identical repeat not served from the artifact cache")
	}
	fb, _ := json.Marshal(first.Artifact)
	sb, _ := json.Marshal(second.Artifact)
	if !bytes.Equal(fb, sb) {
		t.Error("cached artifact differs")
	}

	stats := decode[ServerStats](t, mustGet(t, ts.URL+"/v1/stats"))
	if stats.Artifacts.Hits < 1 || stats.Artifacts.HitRatio <= 0 {
		t.Errorf("artifact cache hits not observable: %+v", stats.Artifacts)
	}

	// A matrix experiment shares per-simulation results through the runner
	// cache: fig5 and fig6 both re-simulate (baseline, dlvp) pairs.
	decode[experimentResponse](t, postJSON(t, ts.URL+"/v1/experiments/fig5", req))
	pre := decode[ServerStats](t, mustGet(t, ts.URL+"/v1/stats")).Runner
	decode[experimentResponse](t, postJSON(t, ts.URL+"/v1/experiments/fig6", req))
	post := decode[ServerStats](t, mustGet(t, ts.URL+"/v1/stats")).Runner
	if post.CacheHits <= pre.CacheHits {
		t.Errorf("fig6 did not reuse fig5's baseline runs: hits %d -> %d", pre.CacheHits, post.CacheHits)
	}
}

// TestConcurrentExperimentsCoalesce: two identical experiment requests in
// flight together share one build. The second is sent once the first's
// miss is counted, so while the first is still building (fig1 over every
// workload takes a few hundred milliseconds); it joins that build and is
// answered from it as cached, so the artifact cache counts one miss and
// one hit.
func TestConcurrentExperimentsCoalesce(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/v1/experiments/fig1"
	body := `{"instrs":100000}`
	type reply struct {
		resp *http.Response
		err  error
	}
	firstc := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		firstc <- reply{resp, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for decode[ServerStats](t, mustGet(t, ts.URL+"/v1/stats")).Artifacts.Misses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never started its build")
		}
		time.Sleep(time.Millisecond)
	}
	secondResp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	second := decode[experimentResponse](t, secondResp)
	r1 := <-firstc
	if r1.err != nil {
		t.Fatal(r1.err)
	}
	first := decode[experimentResponse](t, r1.resp)

	if first.Cached || !second.Cached {
		t.Errorf("cached = %v, %v; want the first built and the second served from it", first.Cached, second.Cached)
	}
	fb, _ := json.Marshal(first.Artifact)
	sb, _ := json.Marshal(second.Artifact)
	if !bytes.Equal(fb, sb) {
		t.Error("the two requests got different artifacts")
	}
	if a := decode[ServerStats](t, mustGet(t, ts.URL+"/v1/stats")).Artifacts; a.Misses != 1 || a.Hits != 1 || a.HitRatio != 0.5 {
		t.Errorf("artifact cache %+v, want 1 miss (one build) and 1 hit", a)
	}
}

func TestExperimentUnknownID(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/experiments/fig99", map[string]any{})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	if body := decode[errorBody](t, resp); len(body.Known) == 0 {
		t.Errorf("error body lists no known ids: %+v", body)
	}
}

func TestExperimentUnknownWorkload400(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/experiments/fig4",
		map[string]any{"instrs": testInstrs, "workloads": []string{"ghost"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/runs",
		map[string]any{"workload": "mcf", "scheme": "dlvp", "instrs": testInstrs, "async": true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	acc := decode[acceptedResponse](t, resp)
	if acc.JobID == "" || acc.Poll == "" {
		t.Fatalf("accepted = %+v", acc)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		view := decode[jobView](t, mustGet(t, ts.URL+acc.Poll))
		switch view.Status {
		case statusDone:
			if view.Result == nil || view.StartedAt == nil || view.FinishedAt == nil {
				t.Fatalf("done view incomplete: %+v", view)
			}
			return
		case statusError:
			t.Fatalf("job failed: %s", view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish; last status %q", view.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobUnknownID(t *testing.T) {
	_, ts := newTestServer(t)
	resp := mustGet(t, ts.URL+"/v1/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	decode[runResponse](t, postJSON(t, ts.URL+"/v1/runs",
		map[string]any{"workload": "perlbmk", "scheme": "baseline", "instrs": testInstrs}))
	resp := mustGet(t, ts.URL+"/metrics")
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, metric := range []string{
		"dlvpd_runner_workers", "dlvpd_runner_sims_executed",
		"dlvpd_runner_cache_hit_ratio", "dlvpd_runner_instrs_per_sec",
		"dlvpd_artifact_cache_hits", "dlvpd_uptime_seconds",
	} {
		if !strings.Contains(out, metric) {
			t.Errorf("metrics output missing %s:\n%s", metric, out)
		}
	}
}

// TestGracefulShutdownDrainsInFlight starts a slow synchronous request,
// shuts the HTTP server down, and checks the in-flight request completes
// with a full response rather than being severed.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	s := New(Options{Runner: runner.New(runner.Options{})})
	defer s.Close()
	httpSrv := httptest.NewServer(s.Handler())
	// httptest.Server.Close performs a graceful close: it waits for
	// outstanding requests. Drive it like cmd/dlvpd drives http.Server.
	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		close(started)
		// A fresh (uncached) simulation long enough to still be in flight
		// when shutdown begins.
		resp := postJSON(t, httpSrv.URL+"/v1/runs",
			map[string]any{"workload": "gcc", "scheme": "tournament", "instrs": 60_000})
		if resp.StatusCode != http.StatusOK {
			result <- fmt.Errorf("status = %d", resp.StatusCode)
			return
		}
		body := decode[runResponse](t, resp)
		if body.Stats.Instructions == 0 {
			result <- fmt.Errorf("empty stats after drain")
			return
		}
		result <- nil
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the request reach the handler
	httpSrv.Close()                   // graceful: drains in-flight requests
	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight request never completed")
	}
}

// TestDrainWaitsForAsyncJobs checks Drain blocks until background jobs
// finish, the path cmd/dlvpd takes on SIGTERM.
func TestDrainWaitsForAsyncJobs(t *testing.T) {
	s, ts := newTestServer(t)
	acc := decode[acceptedResponse](t, postJSON(t, ts.URL+"/v1/runs",
		map[string]any{"workload": "twolf", "scheme": "vtage", "instrs": 30_000, "async": true}))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	view := decode[jobView](t, mustGet(t, ts.URL+"/v1/jobs/"+acc.JobID))
	if view.Status != statusDone {
		t.Errorf("after drain, job status = %q, want done", view.Status)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// A server whose runner carries a trace cache must surface the cache's
// counters in the /v1/stats payload: two schemes over one workload means
// one emulation and one replay.
func TestStatsExposeTraceCache(t *testing.T) {
	tc := tracecache.New(64 << 20)
	s := New(Options{Runner: runner.New(runner.Options{TraceCache: tc})})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	for _, scheme := range []string{"baseline", "dlvp"} {
		req := map[string]any{"workload": "perlbmk", "scheme": scheme, "instrs": testInstrs}
		resp := decode[runResponse](t, postJSON(t, ts.URL+"/v1/runs", req))
		if resp.Stats.Instructions == 0 {
			t.Fatalf("scheme %s: empty stats", scheme)
		}
	}

	stats := decode[ServerStats](t, mustGet(t, ts.URL+"/v1/stats"))
	cs := stats.Runner.TraceCache
	if cs == nil {
		t.Fatal("/v1/stats runner block is missing trace_cache")
	}
	if cs.Emulations != 1 || cs.Replays+cs.Follows != 1 {
		t.Errorf("trace cache stats = %+v, want 1 emulation and 1 replay", *cs)
	}
	if cs.ResidentBytes == 0 || cs.BudgetBytes != tc.Budget() {
		t.Errorf("byte accounting missing from payload: %+v", *cs)
	}
}
