package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dlvp/internal/config"
	"dlvp/internal/matrix"
)

// matrixSubmitResponse acknowledges an accepted matrix.
type matrixSubmitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Shards int    `json:"shards"`
	Cells  int    `json:"cells"`
	Poll   string `json:"poll"`
	Stream string `json:"stream"`
}

// matrixListItem is the compact per-matrix row of GET /v1/matrices.
type matrixListItem struct {
	ID         string        `json:"id"`
	Status     string        `json:"status"`
	Counts     matrix.Counts `json:"counts"`
	CellsDone  int           `json:"cells_done"`
	CellsTotal int           `json:"cells_total"`
	Created    time.Time     `json:"created"`
	ElapsedMS  float64       `json:"elapsed_ms"`
	Resumed    bool          `json:"resumed,omitempty"`
	Error      string        `json:"error,omitempty"`
}

// handleMatrixSubmit serves POST /v1/matrices: decompose a (workload x
// scheme) sweep into per-workload shards, scatter them across the
// cluster, and return 202 with poll/stream locations. An empty scheme
// list (and no explicit configs) sweeps every registered scheme; instrs
// defaults and caps follow the single-run rules.
func (s *Server) handleMatrixSubmit(w http.ResponseWriter, r *http.Request) {
	var spec matrix.Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: "invalid JSON body: " + err.Error()})
		return
	}
	instrs, err := clampInstrs(spec.Instrs)
	if err != nil {
		s.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	spec.Instrs = instrs
	if len(spec.Schemes) == 0 && len(spec.Configs) == 0 {
		spec.Schemes = config.SchemeNames()
	}
	m, err := s.matrices.SubmitCtx(r.Context(), spec)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, matrix.ErrTooManyMatrices) {
			status = http.StatusTooManyRequests
		}
		s.writeJSON(w, r, status, errorBody{Error: err.Error()})
		return
	}
	plan := m.Plan()
	s.writeJSON(w, r, http.StatusAccepted, matrixSubmitResponse{
		ID:     m.ID(),
		Status: matrix.StatusRunning,
		Shards: len(plan.Shards),
		Cells:  plan.Cells,
		Poll:   "/v1/matrices/" + m.ID(),
		Stream: "/v1/matrices/" + m.ID() + "/stream",
	})
}

// handleMatrixList serves GET /v1/matrices: every retained matrix,
// oldest first.
func (s *Server) handleMatrixList(w http.ResponseWriter, r *http.Request) {
	items := []matrixListItem{}
	for _, m := range s.matrices.List() {
		v := m.View()
		items = append(items, matrixListItem{
			ID:         v.ID,
			Status:     v.Status,
			Counts:     v.Counts,
			CellsDone:  v.CellsDone,
			CellsTotal: v.CellsTotal,
			Created:    v.Created,
			ElapsedMS:  v.ElapsedMS,
			Resumed:    v.Resumed,
			Error:      v.Error,
		})
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{"matrices": items})
}

// handleMatrixGet serves GET /v1/matrices/{id}: full per-shard status,
// provenance, and the current (partial or final) tables.
func (s *Server) handleMatrixGet(w http.ResponseWriter, r *http.Request) {
	m, ok := s.matrices.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{Error: "unknown matrix id"})
		return
	}
	s.writeJSON(w, r, http.StatusOK, m.View())
}

// handleMatrixCancel serves POST /v1/matrices/{id}/cancel. In-flight
// shards stop and count as cancelled, completed work is kept, and the
// terminal "cancelled" event closes any streams.
func (s *Server) handleMatrixCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.matrices.Cancel(id) {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{Error: "unknown matrix id"})
		return
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{"id": id, "cancelling": true})
}

// handleMatrixStream serves GET /v1/matrices/{id}/stream: a Server-Sent
// Events tail of the matrix with the same discipline as the timeline
// stream. Each completed shard arrives as an "event: shard" whose data
// carries the shard's provenance plus the refreshed partial tables; a
// resumed matrix leads with "event: resumed"; the terminal "done" /
// "cancelled" / "error" event carries the final tables and closes the
// stream. Events go out as they are appended: the handler sleeps on the
// matrix's change channel, not on a timer. Reconnecting clients replay
// the full event log from the start.
func (s *Server) handleMatrixStream(w http.ResponseWriter, r *http.Request) {
	m, ok := s.matrices.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, r, http.StatusNotFound, errorBody{Error: "unknown matrix id"})
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

	seq := 0
	for {
		events, terminal, changed := m.EventsSince(seq)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
			seq = ev.Seq + 1
		}
		if len(events) > 0 {
			flusher.Flush()
		}
		if terminal {
			// The terminal event was just (or previously) delivered; the
			// stream's work is done.
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.shutdownCh:
			// Daemon draining: a running matrix deliberately never goes
			// terminal on shutdown (it stays resumable), so the stream must
			// end itself or it stalls http.Server.Shutdown for the whole
			// grace period. Clients reconnect and replay after restart.
			return
		case <-changed:
		}
	}
}
