package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dlvp/internal/dispatch"
	"dlvp/internal/runner"
	"dlvp/internal/siteprof"
)

// A default engine records a site profile for every run, so the endpoint
// serves one.
func TestRunSitesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	id := submitAsyncRun(t, ts, "perlbmk", testInstrs)
	waitForSitesJob(t, ts, id)

	resp := mustGet(t, ts.URL+"/v1/runs/"+id+"/sites")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	p := decode[siteprof.Profile](t, resp)
	if p.Workload != "perlbmk" || p.Partial {
		t.Errorf("profile header = %q partial=%v", p.Workload, p.Partial)
	}
	if len(p.Sites) == 0 {
		t.Fatal("no sites in the served profile")
	}
	if tot := p.Totals(); tot.Eligible == 0 {
		t.Error("served profile has zero eligible loads")
	}

	prom := mustGet(t, ts.URL+"/v1/runs/"+id+"/sites?format=prom")
	defer prom.Body.Close()
	body, err := io.ReadAll(prom.Body)
	if err != nil {
		t.Fatalf("read prom body: %v", err)
	}
	if !strings.Contains(string(body), "dlvp_site_eligible_total{workload=\"perlbmk\"") {
		t.Error("prometheus exposition missing dlvp_site_eligible_total series")
	}
	if ct := prom.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom content type = %q", ct)
	}

	if resp := mustGet(t, ts.URL+"/v1/runs/"+id+"/sites?format=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus format status = %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := mustGet(t, ts.URL+"/v1/runs/nope/sites"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// A finished run whose result the engine no longer holds must 404 the
// endpoint rather than serve an empty profile. An engine with its result
// cache disabled holds none.
func TestRunSitesResultNotRetained(t *testing.T) {
	s := New(Options{Runner: runner.New(runner.Options{CacheEntries: -1})})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	id := submitAsyncRun(t, ts, "perlbmk", testInstrs)
	waitForSitesJob(t, ts, id)
	resp := mustGet(t, ts.URL+"/v1/runs/"+id+"/sites")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("sites of an unretained result = %d, want 404", resp.StatusCode)
	}
}

// failingPeer is a dispatch backend that fails the test whenever a job
// reaches it.
type failingPeer struct {
	t     *testing.T
	calls atomic.Int64
}

func (*failingPeer) Name() string                      { return "failing-peer" }
func (*failingPeer) CheckHealth(context.Context) error { return nil }

func (b *failingPeer) RunResult(context.Context, runner.Job) (runner.Result, bool, error) {
	b.calls.Add(1)
	b.t.Error("a job of the sites experiment was routed to a peer")
	return runner.Result{}, false, errors.New("failing peer")
}

// Site profiles exist only on the local engine, so a clustered daemon
// runs the sites experiment there: it answers with the table, and no job
// reaches the peer.
func TestSitesExperimentRunsOnLocalEngine(t *testing.T) {
	eng := runner.New(runner.Options{})
	peer := &failingPeer{t: t}
	disp, err := dispatch.New(dispatch.Options{
		Local:          dispatch.NewLocalBackend("", eng),
		Peers:          []dispatch.Backend{peer},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disp.Close)
	srv := New(Options{Runner: eng, Dispatcher: disp})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	pool := []string{"perlbmk", "nat", "mcf"}
	resp := postJSON(t, ts.URL+"/v1/experiments/sites", map[string]any{"instrs": testInstrs, "workloads": pool})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	a := decode[experimentResponse](t, resp).Artifact
	if a == nil || len(a.Tables) != 1 {
		t.Fatalf("artifact = %+v, want one table", a)
	}
	seen := map[string]bool{}
	for _, row := range a.Tables[0].Rows {
		seen[row[0]] = true
	}
	for _, w := range pool {
		if !seen[w] {
			t.Errorf("table has no rows for %s", w)
		}
	}
	if n := peer.calls.Load(); n != 0 {
		t.Errorf("peer got %d calls, want 0", n)
	}
	if n := eng.Stats().SimsExecuted; n != int64(3*len(pool)) {
		t.Errorf("local engine executed %d simulations, want %d", n, 3*len(pool))
	}
}

// waitForSitesJob polls until the run job reaches a terminal state,
// without requiring the timeline link waitForJob asserts (an engine
// without timeline recording links none).
func waitForSitesJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		view := decode[jobView](t, mustGet(t, ts.URL+"/v1/jobs/"+id))
		switch view.Status {
		case statusDone:
			return
		case statusError:
			t.Fatalf("job failed: %s", view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", view.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
