package matrix

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzMatrixState feeds arbitrary bytes to the load path a restarting
// daemon takes for every file in its matrix directory: anything
// json.Unmarshal accepts into a State must rebuild a Matrix and render its
// View without a panic. The seeds are the snapshots of one matrix taken
// while a shard was still running and again once it had finished.
func FuzzMatrixState(f *testing.F) {
	for _, st := range seedStates(f) {
		data, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st State
		if json.Unmarshal(data, &st) != nil {
			return
		}
		matrixFromState(st).View()
	})
}

// seedStates runs a two-workload matrix on a fake cluster and returns its
// snapshot while interrupted (linpack done, soplex held running) and once
// finished.
func seedStates(tb testing.TB) []State {
	fc := newFakeCluster("local")
	gate := make(chan struct{})
	fc.gate["soplex"] = gate
	o := New(Options{Cluster: fc, WorkersPerTarget: 1})
	defer o.Close()
	m, err := o.Submit(testSpec("linpack", "soplex"))
	if err != nil {
		tb.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c := m.View().Counts; c.Done < 1 || c.Running < 1; c = m.View().Counts {
		if time.Now().After(deadline) {
			tb.Fatalf("stalled waiting for one shard done and one running: %+v", c)
		}
		time.Sleep(time.Millisecond)
	}
	interrupted := m.snapshot()
	close(gate)
	waitDone(tb, m)
	finished := m.snapshot()
	if interrupted.Status != StatusRunning || finished.Status != StatusDone {
		tb.Fatalf("seed statuses %q and %q, want %q and %q",
			interrupted.Status, finished.Status, StatusRunning, StatusDone)
	}
	return []State{interrupted, finished}
}
