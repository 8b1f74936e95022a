package dispatch

import (
	"context"

	"dlvp/internal/runner"
)

// Backend executes simulation jobs on behalf of the dispatcher. The two
// implementations are LocalBackend (an in-process runner engine) and
// HTTPBackend (a peer daemon speaking the /v1/runs wire protocol).
type Backend interface {
	// Name identifies the backend. It is the rendezvous-hash identity, so
	// it must be stable for affinity routing to hold: the same job key and
	// the same backend names always produce the same routing order.
	Name() string
	// RunResult executes one job, returning its full result (statistics
	// plus sampled-run provenance) and whether a cache, local or remote,
	// served it.
	RunResult(ctx context.Context, job runner.Job) (runner.Result, bool, error)
	// CheckHealth probes the backend; nil means it can accept work. The
	// dispatcher calls this from its active health loop.
	CheckHealth(ctx context.Context) error
}

// LocalBackend adapts an in-process runner engine to the Backend
// interface. It is the dispatcher's guaranteed fallback: it is never
// ejected, so a clustered daemon can never do worse than standalone mode.
type LocalBackend struct {
	name string
	eng  *runner.Runner
}

// NewLocalBackend wraps eng. An empty name defaults to "local"; daemons
// that advertise themselves to peers should pass their advertised address
// instead so every ring member ranks them identically.
func NewLocalBackend(name string, eng *runner.Runner) *LocalBackend {
	if name == "" {
		name = "local"
	}
	return &LocalBackend{name: name, eng: eng}
}

// Name implements Backend.
func (b *LocalBackend) Name() string { return b.name }

// RunResult implements Backend by executing on the wrapped engine.
func (b *LocalBackend) RunResult(ctx context.Context, job runner.Job) (runner.Result, bool, error) {
	return b.eng.RunResult(ctx, job)
}

// CheckHealth implements Backend; the in-process engine is always healthy.
func (b *LocalBackend) CheckHealth(context.Context) error { return nil }
