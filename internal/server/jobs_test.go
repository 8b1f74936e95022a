package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dlvp/internal/dispatch"
	"dlvp/internal/runner"
)

// parkedBackend holds every job until release is closed or the job's
// context ends, keeping async jobs in flight without simulating anything.
type parkedBackend struct{ release chan struct{} }

func (parkedBackend) Name() string                      { return "parked" }
func (parkedBackend) CheckHealth(context.Context) error { return nil }

func (b parkedBackend) RunResult(ctx context.Context, _ runner.Job) (runner.Result, bool, error) {
	select {
	case <-b.release:
		return runner.Result{}, false, nil
	case <-ctx.Done():
		return runner.Result{}, false, ctx.Err()
	}
}

// TestAsyncSubmissionsBounded: a job registry full of unfinished jobs
// answers 429 to the next async run or experiment and tracks nothing new,
// as /v1/matrices does at its cap. Once a job finishes there is room again.
func TestAsyncSubmissionsBounded(t *testing.T) {
	backend := parkedBackend{release: make(chan struct{})}
	disp, err := dispatch.New(dispatch.Options{Local: backend})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disp.Close)
	s := New(Options{Runner: runner.New(runner.Options{}), Dispatcher: disp})
	s.jobs = newJobStore(2, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	run := func(workload string) *http.Response {
		return postJSON(t, ts.URL+"/v1/runs", map[string]any{
			"workload": workload, "scheme": "dlvp", "instrs": testInstrs, "async": true,
		})
	}
	var first string
	for _, wl := range []string{"perlbmk", "gcc"} {
		resp := run(wl)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async run %s: status %d, want 202", wl, resp.StatusCode)
		}
		if acc := decode[acceptedResponse](t, resp); first == "" {
			first = acc.Poll
		}
	}

	for name, resp := range map[string]*http.Response{
		"run": run("mcf"),
		"experiment": postJSON(t, ts.URL+"/v1/experiments/fig6", map[string]any{
			"instrs": testInstrs, "workloads": []string{"mcf"}, "async": true,
		}),
	} {
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("async %s on a full registry: status %d, want 429", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if _, total := s.jobs.list("", 0, 0); total != 2 {
		t.Errorf("registry tracks %d jobs after refusals, want 2", total)
	}

	close(backend.release)
	deadline := time.Now().Add(30 * time.Second)
	for decode[jobView](t, mustGet(t, ts.URL+first)).Status != statusDone {
		if time.Now().After(deadline) {
			t.Fatal("released job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp := run("mcf")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("async run after a job finished: status %d, want 202", resp.StatusCode)
	}
}

// TestPanickingAsyncJobFails: an async job whose function panics ends in
// the error state carrying the panic text, and the process survives it.
func TestPanickingAsyncJobFails(t *testing.T) {
	s := New(Options{Runner: runner.New(runner.Options{})})
	t.Cleanup(s.Close)
	rec, err := s.jobs.add("run", "")
	if err != nil {
		t.Fatal(err)
	}
	s.spawn(rec, "", "", func(context.Context) (any, error) { panic("core state corrupt") })
	s.async.Wait()
	if v := rec.view(); v.Status != statusError || !strings.Contains(v.Error, "core state corrupt") {
		t.Fatalf("job = %s %q, want %s carrying the panic text", v.Status, v.Error, statusError)
	}
}
