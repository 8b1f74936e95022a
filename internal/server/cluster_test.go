package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/dispatch"
	"dlvp/internal/runner"
	"dlvp/internal/workloads"
)

// newClusterPair builds daemon A whose dispatcher rings {local, B} and
// returns both servers plus B's engine for cache inspection.
func newClusterPair(t *testing.T, opts dispatch.Options) (*httptest.Server, *runner.Runner, *httptest.Server, *runner.Runner, *dispatch.Dispatcher) {
	t.Helper()
	engB := runner.New(runner.Options{})
	srvB := New(Options{Runner: engB})
	tsB := httptest.NewServer(srvB.Handler())
	t.Cleanup(func() { tsB.Close(); srvB.Close() })

	peer, err := dispatch.NewHTTPBackend(tsB.URL, dispatch.HTTPOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	engA := runner.New(runner.Options{})
	opts.Local = dispatch.NewLocalBackend("", engA)
	opts.Peers = []dispatch.Backend{peer}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = time.Hour // tests drive probes explicitly
	}
	disp, err := dispatch.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disp.Close)
	srvA := New(Options{Runner: engA, Dispatcher: disp})
	tsA := httptest.NewServer(srvA.Handler())
	t.Cleanup(func() { tsA.Close(); srvA.Close() })
	return tsA, engA, tsB, engB, disp
}

// TestClusterStandalone: without a dispatcher the endpoint reports
// standalone mode instead of failing.
func TestClusterStandalone(t *testing.T) {
	_, ts := newTestServer(t)
	body := decode[clusterResponse](t, mustGet(t, ts.URL+"/v1/cluster"))
	if body.Mode != "standalone" || body.Dispatch != nil {
		t.Errorf("standalone cluster view = %+v", body)
	}
}

// TestClusterPeerlessDispatcher: a dispatcher with an empty ring (dlvpd
// without -peers) still reports standalone — "cluster" means there is
// someone to route to — while exposing the local dispatch stats.
func TestClusterPeerlessDispatcher(t *testing.T) {
	eng := runner.New(runner.Options{})
	disp, err := dispatch.New(dispatch.Options{
		Local:          dispatch.NewLocalBackend("", eng),
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disp.Close)
	srv := New(Options{Runner: eng, Dispatcher: disp})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	body := decode[clusterResponse](t, mustGet(t, ts.URL+"/v1/cluster"))
	if body.Mode != "standalone" || body.Dispatch == nil || body.Dispatch.Peers != 0 {
		t.Errorf("peerless cluster view = %+v", body)
	}
}

// TestClusterAffinityAndCacheHits: a two-daemon ring executes each unique
// job exactly once cluster-wide, resubmission is fully cache-served, and
// /v1/cluster reports both backends healthy.
func TestClusterAffinityAndCacheHits(t *testing.T) {
	tsA, engA, _, engB, _ := newClusterPair(t, dispatch.Options{})

	names := workloads.Names()[:4]
	submit := func() (cachedAll bool) {
		cachedAll = true
		for _, wl := range names {
			resp := postJSON(t, tsA.URL+"/v1/runs", map[string]any{
				"workload": wl, "scheme": "baseline", "instrs": testInstrs,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("run %s: status %d", wl, resp.StatusCode)
			}
			body := decode[runResponse](t, resp)
			if !body.Cached {
				cachedAll = false
			}
		}
		return cachedAll
	}

	if submit() {
		t.Error("first submission reported fully cached")
	}
	execA, execB := engA.Stats().SimsExecuted, engB.Stats().SimsExecuted
	if execA+execB != int64(len(names)) {
		t.Errorf("cluster executed %d sims for %d unique jobs", execA+execB, len(names))
	}

	// Identical resubmission: affinity routes every job back to the
	// backend holding its result, so the hit ratio is 1.0 (>= 0.9).
	if !submit() {
		t.Error("second identical submission was not fully cache-served")
	}
	if again := engA.Stats().SimsExecuted + engB.Stats().SimsExecuted; again != execA+execB {
		t.Errorf("resubmission re-executed: %d -> %d sims", execA+execB, again)
	}

	body := decode[clusterResponse](t, mustGet(t, tsA.URL+"/v1/cluster"))
	if body.Mode != "cluster" || body.Dispatch == nil {
		t.Fatalf("cluster view = %+v", body)
	}
	if body.Dispatch.Peers != 1 || body.Dispatch.HealthyPeers != 1 {
		t.Errorf("peers = %d healthy = %d, want 1/1", body.Dispatch.Peers, body.Dispatch.HealthyPeers)
	}
	if len(body.Dispatch.Backends) != 2 {
		t.Errorf("backends = %d, want 2", len(body.Dispatch.Backends))
	}
}

// TestClusterPeerDeathFallsBackLocal: killing the peer mid-traffic never
// fails requests — they re-route to the local engine — and the peer is
// ejected from the ring.
func TestClusterPeerDeathFallsBackLocal(t *testing.T) {
	tsA, engA, tsB, _, disp := newClusterPair(t, dispatch.Options{})

	// Choose workloads by their rendezvous rank over the job the server
	// builds, not by the peer's random port: four rank the peer first (two
	// failures reach the threshold) and two rank the local engine first.
	var names []string
	peerFirst, localFirst := 0, 0
	for _, wl := range workloads.Names() {
		key, err := runner.Job{Workload: wl, Config: config.Baseline(), Instrs: testInstrs}.Key()
		if err != nil {
			t.Fatal(err)
		}
		if disp.RankTargets(key)[0] == disp.LocalTarget() {
			if localFirst == 2 {
				continue
			}
			localFirst++
		} else {
			if peerFirst == 4 {
				continue
			}
			peerFirst++
		}
		names = append(names, wl)
	}
	if peerFirst < 2 || localFirst < 1 {
		t.Fatalf("only %d workloads rank the peer first and %d the local engine", peerFirst, localFirst)
	}
	run := func(wl string) *http.Response {
		return postJSON(t, tsA.URL+"/v1/runs", map[string]any{
			"workload": wl, "scheme": "baseline", "instrs": testInstrs,
		})
	}
	for _, wl := range names {
		if resp := run(wl); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm run %s: status %d", wl, resp.StatusCode)
		} else {
			resp.Body.Close()
		}
	}

	tsB.Close() // the peer dies

	for _, wl := range names {
		resp := run(wl)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %s after peer death: status %d", wl, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Every job now completes on A: its engine has simulated (or cached)
	// all six workloads.
	if got := engA.Stats().JobsDone; got < int64(len(names)) {
		t.Errorf("local engine completed %d jobs, want >= %d", got, len(names))
	}
	st := disp.Status()
	if st.HealthyPeers != 0 {
		t.Errorf("dead peer still healthy in status: %+v", st)
	}
}

// TestForwardedRequestsBypassDispatcher: a request carrying the forwarded
// marker executes on the local engine without touching the ring, so
// peers cannot bounce a job back and forth.
func TestForwardedRequestsBypassDispatcher(t *testing.T) {
	// The ring's only peer is unreachable; if the forwarded request
	// entered the dispatcher it would show up in attempt counters.
	engA := runner.New(runner.Options{})
	peer, err := dispatch.NewHTTPBackend("http://127.0.0.1:1", dispatch.HTTPOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	disp, err := dispatch.New(dispatch.Options{
		Local:          dispatch.NewLocalBackend("", engA),
		Peers:          []dispatch.Backend{peer},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disp.Close)
	srv := New(Options{Runner: engA, Dispatcher: disp})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{
		"workload": workloads.Names()[0], "scheme": "baseline", "instrs": testInstrs,
	}); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(dispatch.ForwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded run: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	for _, b := range disp.Status().Backends {
		if b.Attempts != 0 {
			t.Errorf("forwarded request entered the dispatcher: %+v", b)
		}
	}
	if engA.Stats().JobsDone != 1 {
		t.Errorf("forwarded request did not run locally: %+v", engA.Stats())
	}
}

// TestRunWithExplicitConfig: POST /v1/runs accepts a full core
// configuration in place of a scheme name — the wire shape dispatcher
// forwards use — and labels the response "custom".
func TestRunWithExplicitConfig(t *testing.T) {
	_, ts := newTestServer(t)
	cfg, ok := config.ByScheme("dlvp")
	if !ok {
		t.Fatal("dlvp scheme missing")
	}
	resp := postJSON(t, ts.URL+"/v1/runs", map[string]any{
		"workload": workloads.Names()[0], "config": cfg, "instrs": testInstrs,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := decode[runResponse](t, resp)
	if body.Scheme != "custom" {
		t.Errorf("scheme = %q, want custom", body.Scheme)
	}
	if body.Stats.Instructions == 0 {
		t.Error("no instructions simulated")
	}
}

// TestStatsBuildBlock: /v1/stats carries the build identity block used to
// spot peer build skew.
func TestStatsBuildBlock(t *testing.T) {
	_, ts := newTestServer(t)
	body := decode[ServerStats](t, mustGet(t, ts.URL+"/v1/stats"))
	if body.Build.GoVersion == "" {
		t.Errorf("build block incomplete: %+v", body.Build)
	}
	if body.Build.Version == "" {
		t.Errorf("version missing: %+v", body.Build)
	}
}

// TestJobListPaging: limit/offset page the filtered set and the envelope
// reports the total so clients can walk it.
func TestJobListPaging(t *testing.T) {
	store := newJobStore(16, nil)
	for i := 0; i < 5; i++ {
		j, _ := store.add("run", "")
		j.setRunning()
		j.finish(nil, nil)
	}
	store.add("run", "") // queued

	views, total := store.list("", 2, 0)
	if len(views) != 2 || total != 6 {
		t.Errorf("page = %d total = %d, want 2/6", len(views), total)
	}
	views, total = store.list("", 2, 5)
	if len(views) != 1 || total != 6 {
		t.Errorf("tail page = %d total = %d, want 1/6", len(views), total)
	}
	views, total = store.list(statusDone, 10, 0)
	if len(views) != 5 || total != 5 {
		t.Errorf("filtered = %d total = %d, want 5/5", len(views), total)
	}
	views, total = store.list("", 10, 100)
	if len(views) != 0 || total != 6 {
		t.Errorf("past-end page = %d total = %d, want 0/6", len(views), total)
	}
}

// TestJobListPagingHTTP: the wire envelope carries count/total/limit/
// offset and rejects malformed params.
func TestJobListPagingHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	type listResp struct {
		Count  int `json:"count"`
		Total  int `json:"total"`
		Limit  int `json:"limit"`
		Offset int `json:"offset"`
	}
	got := decode[listResp](t, mustGet(t, ts.URL+"/v1/jobs?limit=7&offset=3"))
	if got.Limit != 7 || got.Offset != 3 {
		t.Errorf("echoed paging = %+v", got)
	}
	if got := decode[listResp](t, mustGet(t, ts.URL+"/v1/jobs")); got.Limit != DefaultJobListLimit {
		t.Errorf("default limit = %d, want %d", got.Limit, DefaultJobListLimit)
	}
	if got := decode[listResp](t, mustGet(t, ts.URL+"/v1/jobs?limit=99999")); got.Limit != MaxJobListLimit {
		t.Errorf("oversize limit clamped to %d, want %d", got.Limit, MaxJobListLimit)
	}
	if resp := mustGet(t, ts.URL+"/v1/jobs?offset=-1"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative offset: status %d, want 400", resp.StatusCode)
	}
}
