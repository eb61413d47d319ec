package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Handler builds the HTTP/JSON API over a Server:
//
//	POST /jobs              submit a JobSpec     → 202 JobStatus
//	GET  /jobs              list jobs            → 200 []JobStatus
//	GET  /jobs/{id}         one job's status     → 200 JobStatus
//	POST /jobs/{id}/cancel  stop at a safe point → 202 JobStatus
//	GET  /jobs/{id}/wait    long-poll terminal   → 200 JobStatus
//	GET  /jobs/{id}/stream  live frames          → 200 NDJSON Frame
//	GET  /metrics           counters + latencies → 200 MetricsSnapshot
//	GET  /healthz           liveness             → 200 ("draining" body while shutting down)
//
// Invalid specs map to 400, unknown jobs to 404, a full queue or a
// draining server to 503.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/wait", s.handleWait)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr maps a package error onto an HTTP status.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNoJob):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, err)
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// decodeSpec reads a submitted JobSpec; unknown fields and malformed
// JSON are client errors.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("%w: %s", ErrBadSpec, err)
	}
	return spec, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	timeout := 30 * time.Second
	if q := r.URL.Query().Get("timeout_ms"); q != "" {
		msVal, err := strconv.ParseInt(q, 10, 64)
		if err != nil || msVal < 0 {
			writeErr(w, specErr("timeout_ms %q must be a nonnegative integer", q))
			return
		}
		timeout = time.Duration(msVal) * time.Millisecond
	}
	st, err := s.Wait(r.Context(), r.PathValue("id"), timeout)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStream sends NDJSON progress frames until the job ends or the
// client disconnects. The final line carries the terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	frames, done, off, err := s.Subscribe(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer off()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	send := func(f Frame) bool {
		if err := enc.Encode(f); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	for {
		select {
		case f := <-frames:
			if !send(f) {
				return
			}
			if f.State.Terminal() {
				return
			}
		case <-done:
			// Drain frames published before the terminal transition, then
			// synthesize the final line from the status (the subscriber may
			// have attached after the terminal frame was published).
			for {
				select {
				case f := <-frames:
					if !send(f) {
						return
					}
					if f.State.Terminal() {
						return
					}
				default:
					st, err := s.Get(id)
					if err == nil {
						step := 0
						if st.Result != nil {
							step = st.Result.Steps
						}
						send(Frame{Step: step, State: st.State})
					}
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
