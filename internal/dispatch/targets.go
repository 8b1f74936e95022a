package dispatch

import (
	"context"
	"errors"

	"dlvp/internal/runner"
)

// ErrUnknownBackend reports a shard-level submission naming a backend that
// is not in the ring (e.g. a target remembered from a persisted matrix
// plan after the peer set changed).
var ErrUnknownBackend = errors.New("dispatch: unknown backend")

// The shard-submission surface. Single-job routing (RunResult) picks the
// backend itself; a matrix orchestrator instead plans where every shard
// should land — reusing the same rendezvous ring, so shards go where
// their trace/checkpoint/result caches already live — and then submits
// each shard's jobs to that specific member via RunOn. The interface is
// structural: internal/matrix declares it locally, so dispatch does not
// import matrix and standalone engines can satisfy it too.

// Targets returns every ring member's name in registration order, local
// engine first — the stable target set a matrix orchestrator schedules
// over (and its guaranteed-progress fallback, since the local member is
// never ejected).
func (d *Dispatcher) Targets() []string {
	names := make([]string, len(d.states))
	for i, bs := range d.states {
		names[i] = bs.name
	}
	return names
}

// RankTargets returns every ring member's name in rendezvous order for
// key, highest score first, ejected members included (callers consult
// TargetHealthy for placement and use the rest of the order as the
// failover sequence). The ranking is identical to single-job routing:
// same FNV rendezvous hash, same name set.
func (d *Dispatcher) RankTargets(key string) []string {
	order := rank(d.states, key)
	names := make([]string, len(order))
	for i, bs := range order {
		names[i] = bs.name
	}
	return names
}

// TargetHealthy reports whether the named ring member is currently
// accepting work (the local engine always is; peers are healthy unless
// ejected). Unknown names are unhealthy.
func (d *Dispatcher) TargetHealthy(name string) bool {
	bs := d.findTarget(name)
	return bs != nil && !bs.isEjected()
}

// LocalTarget returns the name of the guaranteed-fallback local backend.
func (d *Dispatcher) LocalTarget() string { return d.local.name }

// RunOn executes one job on the named ring member — shard-level
// submission. Unlike RunResult it never re-routes: the caller owns
// placement and failure policy (a matrix orchestrator requeues the whole
// shard elsewhere). The attempt still flows through the member's
// per-peer in-flight slots and bounded queue, its latency histograms and
// attempt counters, and the passive health machinery, so shard traffic
// ejects a dead peer exactly like routed traffic does.
func (d *Dispatcher) RunOn(ctx context.Context, name string, job runner.Job) (runner.Result, bool, error) {
	bs := d.findTarget(name)
	if bs == nil {
		return runner.Result{}, false, ErrUnknownBackend
	}
	return d.attempt(ctx, bs, job)
}

// findTarget resolves a ring member by name.
func (d *Dispatcher) findTarget(name string) *backendState {
	for _, bs := range d.states {
		if bs.name == name {
			return bs
		}
	}
	return nil
}
