package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"dlvp/internal/matrix"
	"dlvp/internal/runner"
	"dlvp/internal/tracecache"
)

// sampleKernels is the fixed 8-kernel sample: one or two kernels from each
// suite, with pointer chasing, streaming, interpreters and tables. The
// sweep runs it, and the layer microbenchmarks replay it.
var sampleKernels = []string{"perlbmk", "mcf", "gcc", "lbm", "omnetpp", "avmshell", "nat", "fft"}

// sweepSpec is the sampled matrix one sweep unit submits: long
// instruction budgets with short measured windows, so functional
// emulation and checkpoints do most of the work.
var sweepSpec = matrix.Spec{
	Workloads: sampleKernels,
	Schemes:   []string{"baseline", "cap", "vtage", "dlvp"},
	Instrs:    10_000_000,
	Sampling:  &runner.SamplingSpec{Intervals: 8, WarmupInstrs: 5_000, MeasuredInstrs: 10_000},
}

// sweepUnit submits the sampled matrix to a fresh mesh and times it from
// submit to the terminal event of its progress stream.
func sweepUnit(e *env, traced bool) (unit, error) {
	u := unit{layers: map[string]float64{}}
	m, setup, err := startMesh(e.dlvpd, traced)
	if err != nil {
		return u, err
	}
	defer m.stop()
	u.setup = []time.Duration{setup}
	before, err := m.snapshot()
	if err != nil {
		return u, err
	}
	var sp *spans
	traceID := ""
	if traced {
		sp = e.spans
		traceID = fmt.Sprintf("sweep-%d-%d", e.seed, e.index)
	}
	stopProfile, err := startCPUProfile(traced, e.outPath(fmt.Sprintf("unit%d-loadgen.cpu.pprof", e.index)))
	if err != nil {
		return u, err
	}
	var prof sync.WaitGroup
	if traced {
		prof.Add(1)
		go func() {
			defer prof.Done()
			m.profile(2, func(i int) string { return e.outPath(fmt.Sprintf("unit%d-dlvpd%d.cpu.pprof", e.index, i)) })
		}()
	}

	entry := m.d[0]
	c0, err := m.cpuTime()
	if err != nil {
		return u, err
	}
	root, endRoot := sp.start(traceID, "sweep", 0)
	t0 := time.Now()
	_, end := sp.start(traceID, "POST /v1/matrices", root)
	id, submitBytes, err := m.submitMatrix(entry, traceID)
	end()
	if err != nil {
		return u, err
	}
	_, end = sp.start(traceID, "GET /v1/matrices/{id}/stream", root)
	final, streamBytes, err := m.streamMatrix(entry, id)
	end()
	u.wall = time.Since(t0)
	endRoot()
	stopProfile()
	prof.Wait()
	if err != nil {
		return u, err
	}
	c1, err := m.cpuTime()
	if err != nil {
		return u, err
	}
	u.cpu = c1 - c0

	var view matrix.View
	viewBytes, err := m.get(entry.base + "/v1/matrices/" + id)
	if err == nil {
		err = json.Unmarshal(viewBytes, &view)
	}
	if err != nil {
		return u, fmt.Errorf("matrix view: %w", err)
	}
	u.attempted = int64(view.CellsTotal)
	if final.Type != "done" {
		e.mismatch("sweep ended %q: %s", final.Type, final.Error)
	}
	u.output = mustJSON(final.Tables)

	after, err := m.snapshot()
	if err != nil {
		return u, err
	}
	meshLayers(before, after, u.layers)
	var shardMS []float64
	extra := 0
	for _, s := range view.Shards {
		shardMS = append(shardMS, s.ElapsedMS)
		extra += max(s.Attempts-1, 0)
	}
	u.layers["matrix.shard_ms.p50"] = median(shardMS)
	u.layers["matrix.stolen"] = float64(view.Stolen)
	u.layers["matrix.extra_attempts"] = float64(extra)
	u.layers["server.response_kb"] = float64(submitBytes+streamBytes+len(viewBytes)) / 3 / 1024
	if traced {
		tree, err := m.traceTree(entry, traceID)
		if err != nil {
			return u, err
		}
		if err := writeJSON(e.outPath(fmt.Sprintf("unit%d-daemon-spans.json", e.index)), tree); err != nil {
			return u, err
		}
		acc := map[string]float64{}
		foldSelfTimes(tree.Roots, acc)
		addSelfTimes(acc, u.layers)
	}
	if u.rssMB, err = m.peakRSSMB(); err != nil {
		return u, err
	}
	return u, nil
}

// submitMatrix posts the sweep spec, tagged with traceID when set.
func (m *mesh) submitMatrix(d *daemon, traceID string) (string, int, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/matrices", bytes.NewReader([]byte(mustJSON(sweepSpec))))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Request-ID", traceID)
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return "", 0, fmt.Errorf("submit matrix: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, fmt.Errorf("submit matrix: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", 0, fmt.Errorf("submit matrix: %s: %s", resp.Status, b)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &acc); err != nil {
		return "", 0, fmt.Errorf("submit matrix: decode: %w", err)
	}
	return acc.ID, len(b), nil
}

// streamMatrix tails the matrix's event stream until its terminal event.
func (m *mesh) streamMatrix(d *daemon, id string) (matrix.Event, int, error) {
	resp, err := m.client.Get(d.base + "/v1/matrices/" + id + "/stream")
	if err != nil {
		return matrix.Event{}, 0, fmt.Errorf("matrix stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return matrix.Event{}, 0, fmt.Errorf("matrix stream: %s", resp.Status)
	}
	n := 0
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadString('\n')
		n += len(line)
		if err != nil {
			return matrix.Event{}, n, fmt.Errorf("matrix stream ended before a terminal event: %w", err)
		}
		data, ok := strings.CutPrefix(strings.TrimRight(line, "\n"), "data: ")
		if !ok {
			continue
		}
		// A fresh value per event: decoding into a reused one would keep
		// fields (table notes) the later event omits.
		var ev matrix.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return ev, n, fmt.Errorf("matrix stream: decode: %w", err)
		}
		switch ev.Type {
		case matrix.StatusDone, matrix.StatusCancelled, "error":
			return ev, n, nil
		}
	}
}

// cellCycles is the in-process cluster of the reference sweep: one
// engine, with every cell's simulated cycles kept for the exact counts.
type cellCycles struct {
	matrix.SingleEngine
	mu     sync.Mutex
	cycles map[string]uint64
}

func (c *cellCycles) RunOn(ctx context.Context, name string, job runner.Job) (runner.Result, bool, error) {
	res, cached, err := c.SingleEngine.RunOn(ctx, name, job)
	if err == nil {
		if k, kerr := job.Key(); kerr == nil {
			c.mu.Lock()
			c.cycles[k] = res.Stats.Cycles
			c.mu.Unlock()
		}
	}
	return res, cached, err
}

// sweepCheck runs the same matrix.Spec in-process and requires every
// unit's tables to be byte-identical to it.
func sweepCheck(e *env, units []unit) error {
	cl := &cellCycles{
		SingleEngine: matrix.SingleEngine{Engine: runner.New(runner.Options{TraceCache: tracecache.New(regenTraceCacheBytes)})},
		cycles:       map[string]uint64{},
	}
	o := matrix.New(matrix.Options{Cluster: cl})
	defer o.Close()
	mx, err := o.Submit(sweepSpec)
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	<-mx.Done()
	v := mx.View()
	if v.Status != matrix.StatusDone {
		return fmt.Errorf("reference sweep ended %s: %s", v.Status, v.Error)
	}
	want := mustJSON(v.Tables)
	var cycles uint64
	for _, c := range cl.cycles {
		cycles += c
	}
	for i := range units {
		if units[i].output != want {
			e.mismatch("sweep unit %d tables differ from the in-process run of the same spec (both written under -out)", i)
			_ = writeJSON(e.outPath(fmt.Sprintf("unit%d-tables.json", i)), json.RawMessage(units[i].output))
			_ = writeJSON(e.outPath("reference-tables.json"), json.RawMessage(want))
		}
		units[i].layers["sim.cycles"] = float64(cycles)
	}
	return nil
}
