package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/runner"
	"dlvp/internal/workloads"
)

// The traffic mix is an assumption, not measured traffic: the repository
// records no real /v1/runs load. The short budget keeps a unit near two
// seconds, so a run's medians cover about ten units, and each unit's 172
// misses and ~500 hits leave a few samples above each p99.
const (
	// serveInstrs is the short budget of every /v1/runs job (dlvpd's
	// default is 300k).
	serveInstrs = 20_000
	// serveHitsPerMiss repeats of earlier jobs follow each fresh job.
	serveHitsPerMiss = 3
	// serveHitGap is how many fresh jobs back a repeat reaches at least,
	// so the repeated job has almost always completed (and is a hit).
	serveHitGap = 2
	// serveClients is the closed loop's concurrency.
	serveClients = 2
	// serveTagEvery tags one request in this many with a trace ID in
	// traced units, whose cluster span tree is then folded.
	serveTagEvery = 16
	// serveCheckJobs is how many fresh jobs per run are recomputed
	// in-process for the output check.
	serveCheckJobs = 4
)

var serveSchemes = []string{"baseline", "cap", "vtage", "dlvp"}

// serveJob is one (kernel, scheme) simulation at serveInstrs.
type serveJob struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Instrs   uint64 `json:"instrs"`
}

// serveReq is one request of the closed loop.
type serveReq struct {
	job   int  // index into the unit's jobs
	fresh bool // first request for the job: a miss
}

// servePlan generates one unit's requests from the seed: every (kernel,
// scheme) job once as a fresh request, in seeded order, each followed by
// serveHitsPerMiss repeats of seeded earlier jobs. Every unit has the
// same mix; only the order and which jobs repeat differ.
func servePlan(seed int64, index int) ([]serveJob, []serveReq) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(index)))
	var jobs []serveJob
	for _, w := range workloads.Names() {
		for _, s := range serveSchemes {
			jobs = append(jobs, serveJob{Workload: w, Scheme: s, Instrs: serveInstrs})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	var reqs []serveReq
	for i := range jobs {
		reqs = append(reqs, serveReq{job: i, fresh: true})
		if n := i - serveHitGap; n > 0 {
			for k := 0; k < serveHitsPerMiss; k++ {
				reqs = append(reqs, serveReq{job: rng.Intn(n)})
			}
		}
	}
	return jobs, reqs
}

// runResponse is the part of a /v1/runs response the checks use.
type runResponse struct {
	Cached bool             `json:"cached"`
	Stats  metrics.RunStats `json:"stats"`
}

// serveOutcome is one completed request.
type serveOutcome struct {
	class   string // "hit", "miss" or "coalesced" (repeat sent before its job completed)
	latency time.Duration
	bytes   int
	resp    runResponse
	err     error
}

// serveUnit runs one unit's request sequence through serveClients
// closed-loop clients against a fresh mesh, alternating the entry daemon.
func serveUnit(e *env, traced bool) (unit, error) {
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
	jobs, reqs := servePlan(e.seed, e.index)
	var sp *spans
	if traced {
		sp = e.spans
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
			m.profile(1, func(i int) string { return e.outPath(fmt.Sprintf("unit%d-dlvpd%d.cpu.pprof", e.index, i)) })
		}()
	}

	out := make([]serveOutcome, len(reqs))
	trees := make([]clusterTrace, len(reqs))
	done := make([]atomic.Bool, len(jobs))
	tags := map[int]string{}
	for k := range reqs {
		if traced && k%serveTagEvery == 0 {
			tags[k] = fmt.Sprintf("serve-%d-%d-%d", e.seed, e.index, k)
		}
	}
	unitTrace := fmt.Sprintf("serve-%d-%d", e.seed, e.index)
	c0, err := m.cpuTime()
	if err != nil {
		return u, err
	}
	root, endRoot := sp.start(unitTrace, "serve", 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) {
					return
				}
				r := reqs[k]
				o := &out[k]
				switch {
				case r.fresh:
					o.class = "miss"
				case done[r.job].Load():
					o.class = "hit"
				default:
					o.class = "coalesced"
				}
				_, end := sp.start(unitTrace, "POST /v1/runs "+o.class, root)
				start := time.Now()
				o.bytes, o.err = postRun(client, m.d[k%2], jobs[r.job], tags[k], &o.resp)
				o.latency = time.Since(start)
				end()
				if r.fresh && o.err == nil {
					done[r.job].Store(true)
				}
				// Fetch a tagged request's tree at once: the daemons keep
				// a bounded ring of recent traces.
				if id := tags[k]; id != "" && o.err == nil {
					tree, err := m.traceTree(m.d[k%2], id)
					if err != nil {
						o.err = err
					}
					trees[k] = tree
				}
			}
		}()
	}
	wg.Wait()
	u.wall = time.Since(t0)
	endRoot()
	stopProfile()
	prof.Wait()
	c1, err := m.cpuTime()
	if err != nil {
		return u, err
	}
	u.cpu = c1 - c0

	// Check every response: fresh jobs are misses, repeats return the
	// fresh response's statistics.
	first := make([]*runResponse, len(jobs))
	lat := map[string][]float64{}
	totalBytes := 0
	for k, r := range reqs {
		if o := &out[k]; r.fresh && o.err == nil {
			first[r.job] = &o.resp
		}
	}
	for k, r := range reqs {
		o := &out[k]
		u.attempted++
		totalBytes += o.bytes
		switch {
		case o.err != nil:
			e.mismatch("request %d (%+v): %v", k, jobs[r.job], o.err)
			continue
		case o.class == "miss" && o.resp.Cached:
			e.mismatch("fresh job %+v answered from a cache", jobs[r.job])
			continue
		case o.class == "hit" && !o.resp.Cached:
			e.mismatch("repeat of %+v was simulated again", jobs[r.job])
			continue
		case !r.fresh && (first[r.job] == nil || mustJSON(o.resp.Stats) != mustJSON(first[r.job].Stats)):
			e.mismatch("repeat of %+v returned other statistics than its first run", jobs[r.job])
			continue
		}
		lat[o.class] = append(lat[o.class], float64(o.latency.Microseconds())/1e3)
	}
	// The first serveCheckJobs fresh jobs of unit 0 are recomputed in-process.
	if e.index == 0 {
		for i := 0; i < serveCheckJobs && i < len(jobs); i++ {
			if first[i] != nil {
				e.serveSamples = append(e.serveSamples, serveSample{jobs[i], first[i].Stats})
			}
		}
	}

	after, err := m.snapshot()
	if err != nil {
		return u, err
	}
	l := u.layers
	meshLayers(before, after, l)
	var cycles uint64
	for _, f := range first {
		if f != nil {
			cycles += f.Stats.Cycles
		}
	}
	l["sim.cycles"] = float64(cycles)
	l["server.response_kb"] = float64(totalBytes) / float64(len(reqs)) / 1024
	l["serve.run_hit_p50_ms"] = quantile(lat["hit"], 0.5)
	l["serve.run_hit_p99_ms"] = quantile(lat["hit"], 0.99)
	l["serve.run_miss_p50_ms"] = quantile(lat["miss"], 0.5)
	l["serve.run_miss_p99_ms"] = quantile(lat["miss"], 0.99)
	l["serve.runs_per_s"] = float64(len(reqs)) / u.wall.Seconds()
	l["serve.coalesced"] = float64(len(lat["coalesced"]))
	if traced {
		acc := map[string]float64{}
		var kept []clusterTrace
		for k := range tags {
			foldSelfTimes(trees[k].Roots, acc)
			kept = append(kept, trees[k])
		}
		addSelfTimes(acc, l)
		if err := writeJSON(e.outPath(fmt.Sprintf("unit%d-daemon-spans.json", e.index)), kept); err != nil {
			return u, err
		}
	}
	if u.rssMB, err = m.peakRSSMB(); err != nil {
		return u, err
	}
	return u, nil
}

// postRun posts one job to d, tagged with traceID when set, and decodes
// the response into resp. It returns the response body's size.
func postRun(client *http.Client, d *daemon, job serveJob, traceID string, resp *runResponse) (int, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/runs", bytes.NewReader([]byte(mustJSON(job))))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Request-ID", traceID)
	}
	hr, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer hr.Body.Close()
	b, err := io.ReadAll(hr.Body)
	if err != nil {
		return len(b), err
	}
	if hr.StatusCode != http.StatusOK {
		return len(b), fmt.Errorf("%s: %s", hr.Status, b)
	}
	return len(b), json.Unmarshal(b, resp)
}

// serveSample is a served fresh job kept for the in-process check.
type serveSample struct {
	job   serveJob
	stats metrics.RunStats
}

// serveCheck recomputes the sampled fresh jobs with runner.Run in-process
// and requires the served statistics to equal them.
func serveCheck(e *env, _ []unit) error {
	r := runner.New(runner.Options{})
	for _, s := range e.serveSamples {
		cfg, ok := config.ByScheme(s.job.Scheme)
		if !ok {
			return fmt.Errorf("unknown scheme %q", s.job.Scheme)
		}
		want, _, err := r.Run(e.ctx, runner.Job{Workload: s.job.Workload, Config: cfg, Instrs: s.job.Instrs})
		if err != nil {
			return fmt.Errorf("in-process run of %+v: %w", s.job, err)
		}
		if mustJSON(want) != mustJSON(s.stats) {
			e.mismatch("served statistics of %+v differ from runner.Run in-process", s.job)
		}
	}
	return nil
}
