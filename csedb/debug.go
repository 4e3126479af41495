package csedb

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// DebugHandler returns the read-only HTTP introspection routes over db:
// Prometheus metrics, pprof, the flight recorder, result-cache contents, and
// a Chrome trace of the last span-traced batch. It opens no socket; the
// embedder serves it (cmd/csedb's -debug binds it, preferably on
// 127.0.0.1), and it never mutates the database.
func (db *DB) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", db.handleDebugIndex)
	mux.HandleFunc("/metrics", db.handleMetrics)
	mux.HandleFunc("/flightrecorder", db.handleFlightRecorder)
	mux.HandleFunc("/cache", db.handleCache)
	mux.HandleFunc("/trace/last", db.handleTraceLast)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (db *DB) handleDebugIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "csedb debug server")
	fmt.Fprintln(w, "  /metrics         Prometheus text exposition")
	fmt.Fprintln(w, "  /flightrecorder  recent and slow batches (JSON)")
	fmt.Fprintln(w, "  /cache           result-cache stats and entries (JSON)")
	fmt.Fprintln(w, "  /trace/last      last span-traced batch, Chrome trace-event format")
	fmt.Fprintln(w, "  /debug/pprof/    runtime profiles")
}

func (db *DB) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, db.metrics.Dump())
}

func (db *DB) handleFlightRecorder(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		ThresholdNS int64              `json:"threshold_ns"`
		Recent      []*obs.BatchRecord `json:"recent"`
		Slow        []*obs.BatchRecord `json:"slow"`
	}{
		ThresholdNS: int64(db.flight.Threshold()),
		Recent:      db.flight.Recent(),
		Slow:        db.flight.Slow(),
	}
	if out.Recent == nil {
		out.Recent = []*obs.BatchRecord{}
	}
	if out.Slow == nil {
		out.Slow = []*obs.BatchRecord{}
	}
	writeJSON(w, out)
}

func (db *DB) handleCache(w http.ResponseWriter, _ *http.Request) {
	c := db.cache
	if c == nil {
		writeJSON(w, map[string]any{"enabled": false})
		return
	}
	s := c.Stats()
	lookups := s.Hits + s.Misses
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(s.Hits) / float64(lookups)
	}
	writeJSON(w, map[string]any{
		"enabled":  true,
		"stats":    s,
		"hit_rate": hitRate,
		"entries":  c.Entries(),
	})
}

func (db *DB) handleTraceLast(w http.ResponseWriter, _ *http.Request) {
	// Span tracing is fixed at Open, so either every record carries spans
	// or none does.
	rec := db.flight.Last()
	if rec == nil || len(rec.Spans) == 0 {
		http.Error(w, "no span-traced batch recorded; enable span tracing (csedb -debug, \\set debug or Options.SpanTracing) and run a batch", http.StatusNotFound)
		return
	}
	data, err := obs.ChromeTrace(rec.Spans)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf(`attachment; filename="csedb-batch-%d-trace.json"`, rec.Seq))
	w.Write(data) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}
