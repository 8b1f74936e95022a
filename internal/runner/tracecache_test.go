package runner

import (
	"context"
	"testing"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/obs"
	"dlvp/internal/trace"
	"dlvp/internal/tracecache"
	"dlvp/internal/workloads"
)

// TestCachedStreamsReachTheCoreInPlace: every trace-cache outcome but a
// bypass hands the core a *trace.SliceReader, which it indexes in place —
// the job that captures the stream, a job that arrives while another
// reader's capture of it is in flight, and a later job that replays it. Only
// the capture records a runner.capture span.
func TestCachedStreamsReachTheCoreInPlace(t *testing.T) {
	const instrs = 20_000
	w, ok := workloads.ByName("perlbmk")
	if !ok {
		t.Fatal("perlbmk not registered")
	}
	job := Job{Workload: w.Name, Config: config.DLVP(), Instrs: instrs}
	inPlace := func(rd trace.Reader, release func(), out, want tracecache.Outcome) {
		t.Helper()
		defer release()
		if out != want {
			t.Fatalf("outcome %q, want %q", out, want)
		}
		if _, ok := rd.(*trace.SliceReader); !ok {
			t.Errorf("%s: the core receives a %T, want a *trace.SliceReader", out, rd)
		}
	}

	o := obs.NewObserver(nil)
	r := New(Options{Obs: o, TraceCache: tracecache.New(64 << 20)})
	for i, want := range []tracecache.Outcome{tracecache.OutcomeCapture, tracecache.OutcomeReplay} {
		id := string(want)
		o.Tracer.Begin(id)
		rd, release, out := r.openTrace(obs.ContextWithTrace(context.Background(), o.Tracer, id), w, job)
		inPlace(rd, release, out, want)
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
		var release func()
		var out tracecache.Outcome
		opened := make(chan struct{})
		go func() {
			defer close(opened)
			rd, release, out = r.openTrace(context.Background(), w, job)
		}()
		time.Sleep(wait)
		close(hold)
		<-opened
		<-captured
		if out != tracecache.OutcomeReplay || wait > time.Second {
			inPlace(rd, release, out, tracecache.OutcomeFollow)
			break
		}
	}

	// Only a bypass streams live.
	rd, release, out := New(Options{}).openTrace(context.Background(), w, job)
	defer release()
	if _, ok := rd.(*trace.SliceReader); out != tracecache.OutcomeBypass || ok {
		t.Errorf("without a trace cache: outcome %q, reader %T, want a live bypass", out, rd)
	}
}
