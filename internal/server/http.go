// HTTP/JSON transport for the serving layer. Endpoints (Go 1.22 method
// patterns):
//
//	POST   /v1/session        → {"session": "s0001"}
//	DELETE /v1/session/{id}   → 204
//	POST   /v1/query          {"session": "...", "sql": "..."} → results
//	GET    /v1/stats          → metrics snapshot
//
// Typed server errors map onto status codes: overloaded → 429,
// shutting_down → 503, session_closed / unknown session → 404, parse and
// other request errors → 400. Error bodies carry the machine-readable form:
// {"error": {"code": ..., "message": ..., "retryable": ...}}.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/exec"
	"repro/internal/sqltypes"
)

// Handler returns the HTTP/JSON routes over s. It opens no socket: the
// embedder serves it on a listener of its own (cmd/csedb's -serve) and, on
// shutdown, stops that listener before it calls Close.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", s.handleNewSession)
	mux.HandleFunc("DELETE /v1/session/{id}", s.handleCloseSession)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

type errorBody struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		Retryable bool   `json:"retryable"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, msg string, retryable bool) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = msg
	body.Error.Retryable = retryable
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeServerError(w http.ResponseWriter, err error) {
	var se *Error
	if errors.As(err, &se) {
		status := http.StatusBadRequest
		switch se.Code {
		case "overloaded":
			status = http.StatusTooManyRequests
		case "shutting_down":
			status = http.StatusServiceUnavailable
		case "session_closed":
			status = http.StatusNotFound
		}
		writeError(w, status, se.Code, se.Message, se.Retryable)
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		writeError(w, 499, "canceled", err.Error(), true)
		return
	}
	writeError(w, http.StatusBadRequest, "query_error", err.Error(), false)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleNewSession(w http.ResponseWriter, r *http.Request) {
	sess, err := s.NewSession()
	if err != nil {
		writeServerError(w, err)
		return
	}
	writeJSON(w, map[string]string{"session": sess.ID()})
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	sess := s.Session(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, "unknown_session", "no such session", false)
		return
	}
	sess.Close()
	w.WriteHeader(http.StatusNoContent)
}

type queryRequest struct {
	Session string `json:"session"`
	SQL     string `json:"sql"`
}

type statementJSON struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

type queryResponse struct {
	Statements []statementJSON `json:"statements"`
	Coalesced  int             `json:"coalesced"`
	Sessions   int             `json:"sessions"`
	PlanCached bool            `json:"plan_cached"`
	WaitUS     int64           `json:"wait_us"`
	WallUS     int64           `json:"wall_us"`
}

// handleQuery submits the query under the HTTP request's context, so a
// client disconnect cancels exactly that client's delivery (the coalesced
// batch keeps running for everyone else — see Session.Query).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q queryRequest
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error(), false)
		return
	}
	sess := s.Session(q.Session)
	if sess == nil {
		writeError(w, http.StatusNotFound, "unknown_session", "no such session", false)
		return
	}
	res, err := sess.Query(r.Context(), q.SQL)
	if err != nil {
		writeServerError(w, err)
		return
	}
	out := queryResponse{
		Statements: make([]statementJSON, len(res.Statements)),
		Coalesced:  res.Coalesced,
		Sessions:   res.Sessions,
		PlanCached: res.PlanCached,
		WaitUS:     res.Wait.Microseconds(),
		WallUS:     res.Wall.Microseconds(),
	}
	for i, st := range res.Statements {
		out.Statements[i] = encodeStatement(st)
	}
	writeJSON(w, out)
}

func encodeStatement(st *exec.StatementResult) statementJSON {
	enc := statementJSON{Columns: st.Names, Rows: make([][]any, len(st.Rows))}
	for i, row := range st.Rows {
		vals := make([]any, len(row))
		for j, d := range row {
			vals[j] = encodeDatum(d)
		}
		enc.Rows[i] = vals
	}
	return enc
}

// encodeDatum maps a datum to its JSON value; dates render via the datum's
// own formatter so the wire form matches the shell's.
func encodeDatum(d sqltypes.Datum) any {
	switch d.Kind() {
	case sqltypes.KindNull:
		return nil
	case sqltypes.KindBool:
		return d.Bool()
	case sqltypes.KindInt:
		return d.Int()
	case sqltypes.KindFloat:
		return d.Float()
	case sqltypes.KindString:
		return d.Str()
	default:
		return d.String()
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}
