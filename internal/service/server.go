package service

import (
	"encoding/json"
	"errors"
	"net/http"
)

// DefaultMaxBodyBytes bounds request bodies (an explicit 2048×2048 float64
// matrix in JSON is ~80 MB; the default allows it with headroom).
const DefaultMaxBodyBytes = 128 << 20

// Server is the HTTP surface over a Manager. Its only state of its own is
// the decoder's memo of recent matrix.data arrays, which is safe for
// concurrent use, so one instance may serve any number of concurrent
// requests.
type Server struct {
	m        *Manager
	maxBytes int64
	memo     *dataMemo
	mux      *http.ServeMux
}

// NewServer builds the HTTP handler for m. maxBytes bounds request bodies
// (0 = DefaultMaxBodyBytes) and the data memo's keys plus values; the memo
// holds as many arrays as the factorization cache holds entries, since a
// remembered array pays only while its factorization is cached.
func NewServer(m *Manager, maxBytes int64) *Server {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBodyBytes
	}
	s := &Server{
		m:        m,
		maxBytes: maxBytes,
		memo:     newDataMemo(m.Options().CacheEntries, maxBytes),
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorBody is the uniform error shape: {"error": "..."}.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON writes v as compact JSON: the indent pass cost more than
// encoding a solve's reply.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// request reads, decodes and parses the size-limited body of a submission
// or a solve, mapping an oversized body to 413 and malformed JSON or an
// invalid request to 400. Only an accepted request's data array is offered
// to the memo. Reports whether the request was accepted; otherwise the
// response has been written.
func (s *Server) request(w http.ResponseWriter, r *http.Request) (*parsedRequest, bool) {
	req, key, err := readRequest(http.MaxBytesReader(w, r.Body, s.maxBytes), s.memo)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return nil, false
	}
	p, err := parse(req.Matrix, req.Config, req.RHS, s.m.Options())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	s.memo.remember(key, req.Matrix.Data)
	return p, true
}

// submitResponse is the body of a 202 from POST /v1/jobs.
type submitResponse struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	CacheKey string `json:"cache_key"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	p, ok := s.request(w, r)
	if !ok {
		return
	}
	j, err := s.m.Submit(p)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{ID: j.ID, State: j.State(), CacheKey: p.key})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, canceled, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if !canceled {
		// Already running or terminal; report the state with 409.
		writeJSON(w, http.StatusConflict, j.View())
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// solveResponse is the body of a 200 from POST /v1/solve.
type solveResponse struct {
	X        []float64 `json:"x"`
	CacheHit bool      `json:"cache_hit"`
	Batched  int       `json:"batched"`
	JobID    string    `json:"job_id,omitempty"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	p, ok := s.request(w, r)
	if !ok {
		return
	}
	x, hit, batch, jobID, err := s.m.Solve(r.Context(), p, p.b)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, solveResponse{X: x, CacheHit: hit, Batched: batch, JobID: jobID})
}

// healthResponse is the body of GET /healthz.
type healthResponse struct {
	Status   string  `json:"status"`
	Draining bool    `json:"draining"`
	UptimeS  float64 `json:"uptime_s"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:   "ok",
		Draining: s.m.draining.Load(),
		UptimeS:  s.m.Uptime().Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.MetricsSnapshot())
}
