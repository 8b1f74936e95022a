package runner

import (
	"context"
	"slices"
	"testing"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/obs"
	"dlvp/internal/trace"
	"dlvp/internal/tracecache"
	"dlvp/internal/workloads"
)

// TestOpenTraceOutcomes: every way openTrace can serve a job's stream
// hands the core the records live emulation produces — the job that
// captures the stream, a job that arrives while another reader's capture
// of it is in flight, a later job that replays it, and a job without a
// trace cache, which streams live. Only the capture records a
// runner.capture span.
func TestOpenTraceOutcomes(t *testing.T) {
	const instrs = 20_000
	w, ok := workloads.ByName("perlbmk")
	if !ok {
		t.Fatal("perlbmk not registered")
	}
	job := Job{Workload: w.Name, Config: config.DLVP(), Instrs: instrs}
	want := trace.Collect(w.Reader(instrs), 0)
	check := func(rd trace.Reader, out, wantOut tracecache.Outcome, err error) {
		t.Helper()
		if err != nil || out != wantOut {
			t.Fatalf("outcome %q, error %v; want %q", out, err, wantOut)
		}
		if got := trace.Collect(rd, 0); !slices.Equal(got, want) {
			t.Errorf("%s: the core receives %d records that differ from live emulation's %d", out, len(got), len(want))
		}
	}

	o := obs.NewObserver(nil)
	r := New(Options{Obs: o, TraceCache: tracecache.New(64 << 20)})
	for i, wantOut := range []tracecache.Outcome{tracecache.OutcomeCapture, tracecache.OutcomeReplay} {
		id := string(wantOut)
		o.Tracer.Begin(id)
		rd, out, err := r.openTrace(obs.ContextWithTrace(context.Background(), o.Tracer, id), w, job)
		check(rd, out, wantOut, err)
		tv, _ := o.Tracer.Get(id)
		if captured := len(tv.Spans) == 1 && tv.Spans[0].Name == "runner.capture"; captured != (i == 0) {
			t.Errorf("%s: spans %+v, want one runner.capture span for the capture only", out, tv.Spans)
		}
	}

	// A follower: the job opens its stream while a capture is in flight.
	// The capture's source holds until the job has had wait to reach the
	// cache; a job that came too late anyway (a replay) retries with a
	// fresh cache and twice the wait.
	for wait := time.Millisecond; ; wait *= 2 {
		r := New(Options{TraceCache: tracecache.New(64 << 20)})
		held, hold, captured := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(captured)
			_, release, _ := r.TraceCache().Reader(w.Name, instrs, func() trace.Reader {
				close(held)
				<-hold
				return w.Reader(instrs)
			})
			release()
		}()
		<-held
		var rd trace.Reader
		var out tracecache.Outcome
		var err error
		opened := make(chan struct{})
		go func() {
			defer close(opened)
			rd, out, err = r.openTrace(context.Background(), w, job)
		}()
		time.Sleep(wait)
		close(hold)
		<-opened
		<-captured
		if out != tracecache.OutcomeReplay || wait > time.Second {
			check(rd, out, tracecache.OutcomeFollow, err)
			break
		}
	}

	rd, out, err := New(Options{}).openTrace(context.Background(), w, job)
	check(rd, out, tracecache.OutcomeBypass, err)
}
