package dispatch

import (
	"context"
	"errors"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSaturated reports a backend whose in-flight limit and bounded queue
// are both full. The dispatcher treats it like a retryable failure —
// re-route to the next backend in the ring — but it does not consume the
// retry budget, since nothing was attempted.
var ErrSaturated = errors.New("dispatch: backend saturated")

// backendState is a ring member: the Backend plus its health, flow-control
// and accounting state.
type backendState struct {
	b     Backend
	name  string
	local bool
	sem   chan struct{} // in-flight slots; nil = unlimited (local)

	waiting   atomic.Int64 // queued for a slot now
	inflight  atomic.Int64 // executing now
	attempts  atomic.Int64
	successes atomic.Int64
	failures  atomic.Int64
	cancelled atomic.Int64 // caller cancellations
	saturated atomic.Int64

	mu          sync.Mutex
	ejected     bool
	consecFails int
	lastErr     string
	lastProbe   time.Time
	nextProbe   time.Time
	backoff     time.Duration
}

func newBackendState(b Backend, local bool, maxInFlight int) *backendState {
	bs := &backendState{b: b, name: b.Name(), local: local}
	if !local && maxInFlight > 0 {
		bs.sem = make(chan struct{}, maxInFlight)
	}
	return bs
}

// isEjected reports whether the backend is currently out of the ring.
// Local backends are never ejected.
func (bs *backendState) isEjected() bool {
	if bs.local {
		return false
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.ejected
}

// acquire claims an in-flight slot, queueing up to maxQueue waiters. The
// returned release function must be called exactly once when the attempt
// finishes. A full queue fails fast with ErrSaturated so the dispatcher
// can re-route instead of piling up goroutines behind a slow peer.
func (bs *backendState) acquire(ctx context.Context, maxQueue int) (func(), error) {
	if bs.sem == nil {
		return func() {}, nil
	}
	release := func() { <-bs.sem }
	select {
	case bs.sem <- struct{}{}:
		return release, nil
	default:
	}
	if int(bs.waiting.Add(1)) > maxQueue {
		bs.waiting.Add(-1)
		return nil, ErrSaturated
	}
	defer bs.waiting.Add(-1)
	select {
	case bs.sem <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// score is the rendezvous (highest-random-weight) hash of one
// (backend, job key) pair. FNV-1a is stable across processes and Go
// versions, so every ring member with the same backend names computes the
// same ranking.
func score(backend, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(backend))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// rank orders the ring for one job key, highest rendezvous score first.
// Identical keys always produce identical orders over a stable backend
// set, which is what routes repeated jobs onto the peer already holding
// their cached results.
func rank(states []*backendState, key string) []*backendState {
	out := append([]*backendState(nil), states...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(out[i].name, key), score(out[j].name, key)
		if si != sj {
			return si > sj
		}
		return out[i].name < out[j].name
	})
	return out
}
