package server

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"antlayer/internal/obs"
)

// handleTraces serves GET /traces: the retained request traces, slowest
// first — the union of the recent ring and the slowest-N retention list,
// so both "what just happened" and "what was ever slow" stay answerable.
//
//	?limit=N    at most N traces (0 or absent: all retained)
//	?min_ms=D   only finished traces at least D milliseconds long
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.httpError(w, http.StatusBadRequest, "bad limit %q (want a non-negative integer)", v)
			return
		}
		limit = n
	}
	var min time.Duration
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		// NaN fails every comparison; past 2^63 ns the conversion to a
		// Duration would overflow.
		if err != nil || !(ms >= 0 && ms*float64(time.Millisecond) < math.MaxInt64) {
			s.httpError(w, http.StatusBadRequest, "bad min_ms %q (want a non-negative number a duration can hold)", v)
			return
		}
		min = time.Duration(ms * float64(time.Millisecond))
	}
	views := s.tracer.List(limit, min)
	if views == nil {
		views = []obs.TraceView{}
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []obs.TraceView `json:"traces"`
	}{views})
}

// handleTrace serves GET /traces/{id}: one trace with its full span
// breakdown, including rebased worker spans for distributed runs. 404
// when the ID was never seen or has aged out of both retention tiers.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.tracer.Get(id)
	if !ok {
		s.httpError(w, http.StatusNotFound, "no trace %q (traces are retained in a bounded ring plus a slowest-N list)", id)
		return
	}
	writeJSON(w, http.StatusOK, tr.View())
}
