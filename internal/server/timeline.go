package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dlvp/internal/obs"
	"dlvp/internal/timeline"
)

// timelineFor resolves the flight-recorder series for a run job: the live
// recorder's partial view while the simulation executes, the cached result's
// finished timeline afterwards. Timelines come from the local engine only —
// dispatcher-forwarded jobs that executed on a peer have none here.
func (s *Server) timelineFor(key string) (*timeline.Timeline, bool) {
	if rec := s.runner.LiveTimeline(key); rec != nil {
		return rec.Partial(), true
	}
	if res, ok := s.runner.CachedResult(key); ok && res.Timeline != nil {
		return res.Timeline, true
	}
	return nil, false
}

// resolveRunJob maps a /v1/runs/{id}/... path to the async run job's
// runner key, writing the error response itself when the job is unusable.
func (s *Server) resolveRunJob(w http.ResponseWriter, r *http.Request) (key string, ok bool) {
	j, found := s.jobs.get(r.PathValue("id"))
	if !found {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return "", false
	}
	key = j.runInfo()
	if key == "" {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{
			Error: fmt.Sprintf("job %q is a %s job, not a run; only runs record timelines", j.id, j.kind)})
		return "", false
	}
	return key, true
}

// writeRecording serves one of a run's recordings as JSON or, with
// ?format=prom, as the Prometheus text exposition prom renders.
func writeRecording[T any](s *Server, w http.ResponseWriter, r *http.Request, v *T, prom func(io.Writer, *T)) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		s.writeJSON(w, r, http.StatusOK, v)
	case "prom":
		w.Header().Set("Content-Type", obs.ContentType)
		prom(w, v)
	default:
		s.writeJSON(w, r, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("unknown format %q", format), Known: []string{"json", "prom"}})
	}
}

// handleRunTimeline serves GET /v1/runs/{id}/timeline: the interval
// flight-recorder series for an async run job, as JSON or — with
// ?format=prom — in the Prometheus text exposition format.
func (s *Server) handleRunTimeline(w http.ResponseWriter, r *http.Request) {
	key, ok := s.resolveRunJob(w, r)
	if !ok {
		return
	}
	tl, ok := s.timelineFor(key)
	if !ok {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{
			Error: "no timeline for this run: job not started, or result evicted"})
		return
	}
	writeRecording(s, w, r, tl, timeline.WritePrometheus)
}

// timelineStreamPoll is how often the SSE stream re-snapshots the live
// recorder.
const timelineStreamPoll = 50 * time.Millisecond

// handleRunTimelineStream serves GET /v1/runs/{id}/timeline/stream: a
// Server-Sent Events tail of a run's flight recorder. Each interval sample
// arrives as an "event: sample" with the Sample JSON in data; when
// downsampling rewrites history mid-run an "event: reset" precedes the
// full resend; "event: done" closes a completed run's stream. A stream
// opened before the job starts waits for the recorder to appear.
func (s *Server) handleRunTimelineStream(w http.ResponseWriter, r *http.Request) {
	key, ok := s.resolveRunJob(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		s.writeJSON(w, r, http.StatusInternalServerError, errorBody{Error: "streaming unsupported by connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	writeSample := func(sample timeline.Sample) bool {
		data, err := json.Marshal(sample)
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "event: sample\ndata: %s\n\n", data)
		return err == nil
	}
	writeEvent := func(name string) {
		fmt.Fprintf(w, "event: %s\ndata: {}\n\n", name)
	}

	sent := 0    // samples already delivered at the current generation
	lastGen := 0 // downsampling generation of the delivered samples
	ticker := time.NewTicker(timelineStreamPoll)
	defer ticker.Stop()
	for {
		if rec := s.runner.LiveTimeline(key); rec != nil {
			samples, gen := rec.Snapshot()
			if gen != lastGen {
				// Downsampling merged neighbours: everything the client
				// holds is stale; resend the rewritten history.
				writeEvent("reset")
				sent, lastGen = 0, gen
			}
			for ; sent < len(samples); sent++ {
				if !writeSample(samples[sent]) {
					return
				}
			}
			flusher.Flush()
		} else if res, ok := s.runner.CachedResult(key); ok && res.Timeline != nil {
			// The run finished (or was already cached): deliver whatever the
			// client has not seen and close. A finished timeline at a newer
			// generation than the live samples we streamed starts over.
			if res.Timeline.Merges != lastGen {
				writeEvent("reset")
				sent = 0
			}
			for ; sent < len(res.Timeline.Samples); sent++ {
				if !writeSample(res.Timeline.Samples[sent]) {
					return
				}
			}
			writeEvent("done")
			flusher.Flush()
			return
		} else if j, ok := s.jobs.get(r.PathValue("id")); ok && j.terminal() {
			// Terminal job with nothing live and nothing cached: either it
			// failed, or the engine runs without a result cache. Close the
			// stream rather than poll forever.
			if j.currentStatus() == statusError {
				writeEvent("error")
			} else {
				writeEvent("done")
			}
			flusher.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.shutdownCh:
			// Daemon draining: end the stream so http.Server.Shutdown is not
			// blocked by a connected client until the grace period expires.
			return
		case <-ticker.C:
		}
	}
}
