package server

import (
	"net/http"

	"dlvp/internal/siteprof"
)

// sitesFor resolves the per-load-site attribution profile for a run job:
// a partial snapshot of the live collector while the simulation executes,
// the cached result's finished profile afterwards. Like timelines, site
// profiles come from the local engine only.
func (s *Server) sitesFor(key string) (*siteprof.Profile, bool) {
	if col := s.runner.LiveSites(key); col != nil {
		return col.Snapshot(), true
	}
	if res, ok := s.runner.CachedResult(key); ok && res.Sites != nil {
		return res.Sites, true
	}
	return nil, false
}

// handleRunSites serves GET /v1/runs/{id}/sites: the per-static-load
// misprediction-attribution profile for an async run job, as JSON or —
// with ?format=prom — in the Prometheus text exposition format. While
// the run executes the response is a point-in-time snapshot with
// "partial": true; poll until it clears to get the finished profile.
func (s *Server) handleRunSites(w http.ResponseWriter, r *http.Request) {
	key, ok := s.resolveRunJob(w, r)
	if !ok {
		return
	}
	prof, ok := s.sitesFor(key)
	if !ok {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{
			Error: "no site profile for this run: job not started, or result evicted"})
		return
	}
	writeRecording(s, w, r, prof, siteprof.WritePrometheus)
}
