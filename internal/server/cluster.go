package server

import (
	"context"
	"net/http"
	"runtime"
	"runtime/debug"

	"dlvp/internal/dispatch"
	"dlvp/internal/experiments"
	"dlvp/internal/runner"
)

// engine is what a request executes on: the local runner or the
// dispatcher. Both serve experiment matrices (experiments.Engine) and
// full results for /v1/runs, so sampled provenance survives routing.
type engine interface {
	experiments.Engine
	RunResult(ctx context.Context, job runner.Job) (runner.Result, bool, error)
}

// engineFor picks the execution engine for one request. Forwarded jobs
// (another daemon's dispatcher routed them here) and standalone daemons
// run on the in-process engine; everything else scatters through the
// dispatcher's backend ring.
func (s *Server) engineFor(r *http.Request) engine {
	if s.dispatcher == nil || r.Header.Get(dispatch.ForwardedHeader) != "" {
		return s.runner
	}
	return s.dispatcher
}

// clusterResponse is the GET /v1/cluster payload.
type clusterResponse struct {
	Mode     string           `json:"mode"` // "standalone" | "cluster"
	Dispatch *dispatch.Status `json:"dispatch,omitempty"`
}

// handleCluster reports the dispatcher's view of the backend ring:
// per-backend health (healthy/ejected, consecutive failures), flow state
// (in-flight, queued) and accounting (attempts, failures, saturations).
// Operators hit this to verify peers are live before a matrix and to
// watch ejection/reinstatement during incidents.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.dispatcher == nil {
		s.writeJSON(w, r, http.StatusOK, clusterResponse{Mode: "standalone"})
		return
	}
	st := s.dispatcher.Status()
	// A dispatcher with an empty ring (dlvpd without -peers) is still a
	// standalone daemon; "cluster" means there is someone to route to.
	mode := "cluster"
	if st.Peers == 0 {
		mode = "standalone"
	}
	s.writeJSON(w, r, http.StatusOK, clusterResponse{Mode: mode, Dispatch: &st})
}

// BuildInfo identifies the running binary so cluster operators can verify
// peer build skew from /v1/stats before blaming a cache-affinity miss on
// routing.
type BuildInfo struct {
	Version   string `json:"version"`                // main module version ("(devel)" for tree builds)
	GoVersion string `json:"go"`                     // toolchain that built the binary
	Revision  string `json:"vcs_revision,omitempty"` // VCS commit when stamped
	Modified  bool   `json:"vcs_modified,omitempty"` // tree was dirty at build time
}

// ReadBuildInfo snapshots the binary's build identity via
// runtime/debug.ReadBuildInfo. Usable from binaries (cmd/dlvpd -version)
// as well as the stats endpoint.
func ReadBuildInfo() BuildInfo {
	out := BuildInfo{Version: "unknown", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	if bi.Main.Version != "" {
		out.Version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		out.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.Revision = s.Value
		case "vcs.modified":
			out.Modified = s.Value == "true"
		}
	}
	return out
}
