package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"dlvp/internal/obs"
)

// Job lifecycle states reported by GET /v1/jobs/{id}.
const (
	statusQueued  = "queued"
	statusRunning = "running"
	statusDone    = "done"
	statusError   = "error"
)

// jobInstruments carries the telemetry handles the job store feeds on
// lifecycle transitions (queued→running→done|error).
type jobInstruments struct {
	transitions *obs.CounterVec // label: to
	queueWait   *obs.Histogram  // created→started
	runDur      *obs.Histogram  // started→finished
}

// asyncJob is one background submission (a run or an experiment) tracked
// for polling.
type asyncJob struct {
	mu       sync.Mutex
	id       string
	kind     string // "run" | "experiment"
	trace    string // trace ID of the originating request
	status   string
	created  time.Time
	started  time.Time
	finished time.Time
	result   any
	errMsg   string
	inst     *jobInstruments

	// runKey links a run job to the runner's content-address for its
	// simulation, for the timeline and sites endpoints (empty for
	// experiment jobs, which have no single timeline).
	runKey string
}

// setRun links a run job to its runner content-address so the timeline
// and sites endpoints can find the live recorders or the cached result.
func (j *asyncJob) setRun(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.runKey = key
}

// runInfo returns the runner key recorded by setRun.
func (j *asyncJob) runInfo() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.runKey
}

func (j *asyncJob) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = statusRunning
	j.started = time.Now()
	if j.inst != nil {
		j.inst.transitions.With(statusRunning).Inc()
		j.inst.queueWait.Observe(j.started.Sub(j.created).Seconds())
	}
}

func (j *asyncJob) finish(result any, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	if err != nil {
		j.status = statusError
		j.errMsg = err.Error()
	} else {
		j.status = statusDone
		j.result = result
	}
	if j.inst != nil {
		j.inst.transitions.With(j.status).Inc()
		if !j.started.IsZero() {
			j.inst.runDur.Observe(j.finished.Sub(j.started).Seconds())
		}
	}
}

// jobView is the polling wire shape. QueuedMS covers created→started (or
// →now while still queued); RunMS covers started→finished (or →now while
// still running).
type jobView struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	TraceID    string     `json:"trace_id,omitempty"`
	Status     string     `json:"status"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	QueuedMS   float64    `json:"queued_ms"`
	RunMS      float64    `json:"run_ms"`
	Result     any        `json:"result,omitempty"`
	Error      string     `json:"error,omitempty"`
	// Timeline is the flight-recorder endpoint for run jobs ("" otherwise).
	Timeline string `json:"timeline,omitempty"`
}

func (j *asyncJob) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:        j.id,
		Kind:      j.kind,
		TraceID:   j.trace,
		Status:    j.status,
		CreatedAt: j.created,
		Result:    j.result,
		Error:     j.errMsg,
	}
	if j.runKey != "" {
		v.Timeline = "/v1/runs/" + j.id + "/timeline"
	}
	now := time.Now()
	switch {
	case j.started.IsZero():
		v.QueuedMS = ms(now.Sub(j.created))
	default:
		t := j.started
		v.StartedAt = &t
		v.QueuedMS = ms(j.started.Sub(j.created))
		if j.finished.IsZero() {
			v.RunMS = ms(now.Sub(j.started))
		} else {
			v.RunMS = ms(j.finished.Sub(j.started))
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (j *asyncJob) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == statusDone || j.status == statusError
}

func (j *asyncJob) currentStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// jobStore tracks async jobs, evicting the oldest finished records to stay
// within its capacity and refusing new jobs when every tracked one is
// still in flight, so the daemon's memory and goroutines stay bounded.
type jobStore struct {
	mu    sync.Mutex
	jobs  map[string]*asyncJob
	order []string // insertion order, for eviction and newest-first listing
	max   int
	inst  *jobInstruments
}

func newJobStore(max int, inst *jobInstruments) *jobStore {
	if max < 1 {
		max = 1
	}
	return &jobStore{jobs: make(map[string]*asyncJob), max: max, inst: inst}
}

func newJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// time-derived id rather than crashing the daemon.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000000")))
	}
	return hex.EncodeToString(b[:])
}

// add registers a queued job, or returns an error when the registry is at
// capacity and none of its jobs has finished.
func (s *jobStore) add(kind, traceID string) (*asyncJob, error) {
	j := &asyncJob{
		id:      newJobID(),
		kind:    kind,
		trace:   traceID,
		status:  statusQueued,
		created: time.Now(),
		inst:    s.inst,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	if len(s.jobs) >= s.max {
		return nil, errors.New("too many unfinished async jobs")
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if s.inst != nil {
		s.inst.transitions.With(statusQueued).Inc()
	}
	return j, nil
}

// evictLocked drops the oldest *finished* jobs until one more fits;
// in-flight jobs are never evicted.
func (s *jobStore) evictLocked() {
	if len(s.jobs) < s.max {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		if len(s.jobs) >= s.max && j.terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *jobStore) get(id string) (*asyncJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list returns one page of job views newest-first, optionally filtered by
// status, skipping offset matches and capping the page at limit (0 = no
// cap). The second result is the total number of matches regardless of
// paging, so clients can walk the whole set. Results are stripped: the
// list is an operator inventory, not a payload channel.
func (s *jobStore) list(status string, limit, offset int) ([]jobView, int) {
	s.mu.Lock()
	ordered := make([]*asyncJob, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		if j, ok := s.jobs[s.order[i]]; ok {
			ordered = append(ordered, j)
		}
	}
	s.mu.Unlock()
	views := make([]jobView, 0, min(len(ordered), max(limit, 0)))
	total := 0
	for _, j := range ordered {
		if status != "" && j.currentStatus() != status {
			continue
		}
		total++
		if total <= offset {
			continue
		}
		if limit > 0 && len(views) >= limit {
			continue // keep counting the total past the page
		}
		v := j.view()
		v.Result = nil
		views = append(views, v)
	}
	return views, total
}

// counts returns tracked job totals by status.
func (s *jobStore) counts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{statusQueued: 0, statusRunning: 0, statusDone: 0, statusError: 0}
	for _, j := range s.jobs {
		j.mu.Lock()
		out[j.status]++
		j.mu.Unlock()
	}
	return out
}
