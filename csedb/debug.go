package csedb

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// debugServer is the opt-in HTTP introspection endpoint: Prometheus metrics,
// pprof, the flight recorder, result-cache contents, and a Chrome trace of
// the last span-traced batch. It binds to the configured address (use
// 127.0.0.1 unless you mean to expose it) and serves read-only views of the
// db's observability state; it never mutates the database.
type debugServer struct {
	srv  *http.Server
	ln   net.Listener
	addr string
}

// StartDebugServer starts the debug HTTP server on addr (":0" picks a free
// port) and returns the bound address. It fails when the server is already
// running or the address cannot be listened on.
func (db *DB) StartDebugServer(addr string) (string, error) {
	db.debugMu.Lock()
	defer db.debugMu.Unlock()
	if db.debug != nil {
		return "", fmt.Errorf("debug server already listening on %s", db.debug.addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: db.DebugHandler(), ReadHeaderTimeout: 5 * time.Second}
	db.debug = &debugServer{srv: srv, ln: ln, addr: ln.Addr().String()}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Stop
	return db.debug.addr, nil
}

// StopDebugServer shuts the debug server down; a no-op when it is not
// running.
func (db *DB) StopDebugServer() error {
	db.debugMu.Lock()
	defer db.debugMu.Unlock()
	if db.debug == nil {
		return nil
	}
	err := db.debug.srv.Close()
	// Close releases the listener only if Serve has begun; closing it here
	// too frees the address for an immediate restart.
	db.debug.ln.Close() //nolint:errcheck // already closed when Serve had begun
	db.debug = nil
	return err
}

// DebugAddr returns the debug server's bound address, or "" when it is not
// running.
func (db *DB) DebugAddr() string {
	db.debugMu.Lock()
	defer db.debugMu.Unlock()
	if db.debug == nil {
		return ""
	}
	return db.debug.addr
}

// DebugHandler returns the debug server's handler without binding a socket —
// the CI smoke and tests scrape it in-process.
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
