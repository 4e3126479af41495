package csedb_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/csedb"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestSpanTracing: a span-traced batch yields a tree covering every pipeline
// phase — parse, the optimizer's candidate formation and subset
// reoptimization, spool materialization with cache outcomes, and statement
// execution — and the tree exports as a loadable Chrome trace.
func TestSpanTracing(t *testing.T) {
	db := openTPCHOpts(t, csedb.Options{SpanTracing: true})
	res, err := db.Run(bench.Table2SQL())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) != 1 || res.Spans[0].Name != "batch" {
		t.Fatalf("Spans roots = %+v, want one batch root", res.Spans)
	}
	for _, phase := range []string{
		"parse", "optimize", "optimize-base", "candidates",
		"subset-reoptimization", "execute", "spool", "statement",
	} {
		if obs.Find(res.Spans, phase) == nil {
			t.Errorf("span tree missing phase %q", phase)
		}
	}
	spool := obs.Find(res.Spans, "spool")
	if spool.Attrs["cache"] != "miss" {
		t.Errorf("first-run spool cache attr = %v, want miss", spool.Attrs["cache"])
	}
	if _, ok := spool.Attrs["rows"]; !ok {
		t.Error("spool span has no rows attr")
	}
	cand := obs.Find(res.Spans, "candidates")
	if cand.Attrs["candidates"] == nil || cand.Attrs["pruned_h4"] == nil {
		t.Errorf("candidates span attrs = %v, want candidate and prune counts", cand.Attrs)
	}
	unfinished := 0
	obs.Walk(res.Spans, func(n *obs.SpanNode) {
		if n.Attrs["unfinished"] == true {
			unfinished++
		}
	})
	if unfinished != 0 {
		t.Errorf("%d spans left unfinished on a successful batch", unfinished)
	}
	data, err := obs.ChromeTrace(res.Spans)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) < 8 {
		t.Errorf("Chrome trace has %d events, want one per span (>= 8)", len(trace.TraceEvents))
	}

	// A repeat run is served by the result cache: the spool span says so.
	res, err = db.Run(bench.Table2SQL())
	if err != nil {
		t.Fatal(err)
	}
	if sp := obs.Find(res.Spans, "spool"); sp.Attrs["cache"] != "hit" {
		t.Errorf("second-run spool cache attr = %v, want hit", sp.Attrs["cache"])
	}

	// A DB opened without span tracing over the same data records none.
	res, err = csedb.OpenOn(db.Catalog(), db.Store(), csedb.Options{}).Run(bench.Table2SQL())
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans != nil {
		t.Error("span tracing off, but Run attached spans")
	}
}

// TestFlightRecorder: every batch — traced or not, failed or not — lands in
// the ring; span trees ride along only on a DB opened with span tracing.
func TestFlightRecorder(t *testing.T) {
	db := openTPCH(t, withCSE())
	if _, err := db.Run(bench.Table2SQL()); err != nil {
		t.Fatal(err)
	}
	fr := db.FlightRecorder()
	last := fr.Last()
	if last == nil || last.Statements == 0 || last.Rows == 0 {
		t.Fatalf("flight record after a batch = %+v", last)
	}
	if last.Spans != nil {
		t.Error("span tracing off, but the flight record carries spans")
	}
	if last.Wall <= 0 || last.Optimize <= 0 || last.Exec <= 0 {
		t.Errorf("flight record durations not set: %+v", last)
	}

	traced := csedb.OpenOn(db.Catalog(), db.Store(), csedb.Options{CSE: withCSE(), SpanTracing: true})
	if _, err := traced.Run(bench.Table2SQL()); err != nil {
		t.Fatal(err)
	}
	if last := traced.FlightRecorder().Last(); len(last.Spans) == 0 {
		t.Error("span tracing on, but the flight record has no spans")
	}

	// A failed batch is recorded too, with its error.
	if _, err := db.Run("select nonexistent_column from lineitem;"); err == nil {
		t.Fatal("expected an error")
	}
	if last = fr.Last(); last.Err == "" {
		t.Errorf("failed batch recorded without an error: %+v", last)
	}
}

// TestDebugServer: the opt-in HTTP server exposes metrics, the flight
// recorder, cache contents, and a downloadable Chrome trace.
func TestDebugServer(t *testing.T) {
	db := openTPCHOpts(t, csedb.Options{SpanTracing: true})
	addr, err := db.StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer db.StopDebugServer()
	if db.DebugAddr() != addr {
		t.Errorf("DebugAddr = %q, want %q", db.DebugAddr(), addr)
	}
	if _, err := db.StartDebugServer("127.0.0.1:0"); err == nil {
		t.Error("second StartDebugServer must fail while running")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	// Before any span-traced batch there is no trace to download.
	if code, _ := get("/trace/last"); code != http.StatusNotFound {
		t.Errorf("/trace/last before any batch = %d, want 404", code)
	}

	// Run the batch twice: the second run finds its spools through the
	// result-cache lookup.
	for i := 0; i < 2; i++ {
		if _, err := db.Run(bench.Table2SQL()); err != nil {
			t.Fatal(err)
		}
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE optimize_seconds histogram",
		`optimize_seconds_bucket{le="+Inf"} 2`,
		"# TYPE exec_seconds histogram",
		"# TYPE spool_materialize_seconds histogram",
		"# TYPE cache_lookup_seconds histogram",
		"csedb_batches_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, h := range []string{"optimize_seconds", "exec_seconds", "spool_materialize_seconds", "cache_lookup_seconds"} {
		if n := histogramCount(t, body, h); n <= 0 {
			t.Errorf("%s_count = %d, want > 0", h, n)
		}
	}

	code, body = get("/flightrecorder")
	if code != http.StatusOK {
		t.Fatalf("/flightrecorder = %d", code)
	}
	var fr struct {
		ThresholdNS int64              `json:"threshold_ns"`
		Recent      []*obs.BatchRecord `json:"recent"`
		Slow        []*obs.BatchRecord `json:"slow"`
	}
	if err := json.Unmarshal([]byte(body), &fr); err != nil {
		t.Fatalf("/flightrecorder is not valid JSON: %v", err)
	}
	if len(fr.Recent) != 2 {
		t.Fatalf("/flightrecorder holds %d recent records, want 2", len(fr.Recent))
	}
	for _, rec := range fr.Recent {
		if rec.Statements == 0 || len(rec.Spans) == 0 {
			t.Errorf("/flightrecorder recent record = %+v, want statements and spans", rec)
		}
	}
	if fr.ThresholdNS != int64(obs.DefaultSlowThreshold) {
		t.Errorf("threshold_ns = %d", fr.ThresholdNS)
	}

	code, body = get("/cache")
	if code != http.StatusOK {
		t.Fatalf("/cache = %d", code)
	}
	var cacheOut struct {
		Enabled bool             `json:"enabled"`
		HitRate float64          `json:"hit_rate"`
		Entries []map[string]any `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &cacheOut); err != nil {
		t.Fatalf("/cache is not valid JSON: %v", err)
	}
	if !cacheOut.Enabled || len(cacheOut.Entries) == 0 {
		t.Errorf("/cache = %+v, want enabled with entries after a CSE batch", cacheOut)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/trace/last", addr))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace/last = %d", resp.StatusCode)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "trace.json") {
		t.Errorf("Content-Disposition = %q", cd)
	}
	if !strings.Contains(string(body2), `"traceEvents"`) {
		t.Error("/trace/last is not a Chrome trace")
	}

	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	if err := db.StopDebugServer(); err != nil {
		t.Fatal(err)
	}
	if db.DebugAddr() != "" {
		t.Error("DebugAddr non-empty after Stop")
	}
	if err := db.StopDebugServer(); err != nil {
		t.Error("second Stop must be a no-op:", err)
	}
	// The address is free again.
	if _, err := db.StartDebugServer(addr); err != nil {
		t.Errorf("restart on the freed address: %v", err)
	}
	db.StopDebugServer()
}

// TestDebugScrapeDuringBatches scrapes /cache, /metrics and /flightrecorder
// in a loop while Table 2 runs with the result cache on. The handlers read
// the cache, the registry and the flight recorder as batches write them;
// run it under -race.
func TestDebugScrapeDuringBatches(t *testing.T) {
	db := openTPCHOpts(t, csedb.Options{SpanTracing: true})
	h := db.DebugHandler()
	done := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		defer func() { scrapes <- n }()
		for {
			for _, path := range []string{"/cache", "/metrics", "/flightrecorder"} {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s = %d during batches", path, rec.Code)
					return
				}
				n++
			}
		}
	}()
	var res *csedb.BatchResult
	var err error
	for i := 0; i < 3 && err == nil; i++ {
		res, err = db.Run(bench.Table2SQL())
	}
	close(done)
	n := <-scrapes
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecStats.CacheHits() == 0 {
		t.Error("repeated Table 2 served no spool from the result cache")
	}
	if n == 0 {
		t.Error("no scrape completed while the batches ran")
	}
}

// histogramCount returns the <name>_count sample of a Prometheus text
// exposition, or -1 when there is none.
func histogramCount(t *testing.T, metrics, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, name+"_count "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				t.Fatalf("%s_count: %v", name, err)
			}
			return n
		}
	}
	return -1
}

// TestReoptimizationWorkObserved: the work the CSE reoptimizations did —
// groups recosted, groups answered from history, statements refolded into
// the batch root — reaches the batch stats, the subset-reoptimization span,
// the greedy-round spans (which between them account for every call but the
// seed) and the registry, and a prepared plan's re-execution adds none.
func TestReoptimizationWorkObserved(t *testing.T) {
	s := core.DefaultSettings()
	s.Heuristics = false
	s.SearchStrategy = core.SearchGreedy
	db := openTPCHOpts(t, csedb.Options{CSE: &s, SpanTracing: true})
	res, err := db.Run(bench.Table1SQL())
	if err != nil {
		t.Fatal(err)
	}
	w := res.Stats.Work
	if res.Stats.CSEOptimizations < 2 || w.GroupsRecosted == 0 || w.AltCacheHits == 0 || w.RootChildrenRefolded == 0 {
		t.Fatalf("%d reoptimizations did work %+v, want every counter above zero", res.Stats.CSEOptimizations, w)
	}
	if limit := res.Stats.CSEOptimizations * 3; w.RootChildrenRefolded > limit {
		t.Errorf("refolded %d root children, more than %d calls x 3 statements", w.RootChildrenRefolded, res.Stats.CSEOptimizations)
	}
	search := obs.Find(res.Spans, "subset-reoptimization")
	for attr, want := range map[string]int{
		"groups_recosted":        w.GroupsRecosted,
		"alt_cache_hits":         w.AltCacheHits,
		"root_children_refolded": w.RootChildrenRefolded,
	} {
		if search.Attrs[attr] != want {
			t.Errorf("subset-reoptimization %s = %v, want %d", attr, search.Attrs[attr], want)
		}
	}
	rounds, recostedInRounds := 0, 0
	obs.Walk(res.Spans, func(n *obs.SpanNode) {
		if n.Name == "greedy-round" {
			rounds++
			recostedInRounds += n.Attrs["groups_recosted"].(int)
		}
	})
	if rounds == 0 || recostedInRounds == 0 || recostedInRounds >= w.GroupsRecosted {
		t.Errorf("%d greedy rounds recosted %d groups of %d in all (the seed call is outside the rounds)",
			rounds, recostedInRounds, w.GroupsRecosted)
	}
	recosted := db.Metrics().Counter("optimize_groups_recosted_total")
	refolded := db.Metrics().Counter("optimize_root_children_refolded_total")
	if recosted.Value() != int64(w.GroupsRecosted) || refolded.Value() != int64(w.RootChildrenRefolded) {
		t.Errorf("registry has %d groups recosted, %d root children refolded; stats %+v", recosted.Value(), refolded.Value(), w)
	}

	p, err := db.Prepare(bench.Table1SQL())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecutePrepared(context.Background(), p, nil); err != nil {
		t.Fatal(err)
	}
	if recosted.Value() != int64(w.GroupsRecosted) {
		t.Errorf("executing a prepared plan moved optimize_groups_recosted_total to %d", recosted.Value())
	}
}
