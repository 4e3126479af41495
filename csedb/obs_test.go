package csedb_test

import (
	"strings"
	"testing"

	"repro/csedb"
	"repro/internal/bench"
	"repro/internal/obs"
)

// TestExplainAnalyze: the rendering shows per-operator actuals next to the
// estimates, spool hit counts on spool scans, the CSE decision trail, and
// the execution summary.
func TestExplainAnalyze(t *testing.T) {
	db := openTPCH(t, withCSE())
	text, err := db.ExplainAnalyze(bench.Table2SQL())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"estimated cost:",
		"[actual rows=",
		"hits=",
		"CSE decisions:",
		"[h1]",
		"[h4]",
		"[final]",
		"execution: workers=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("ExplainAnalyze output missing %q:\n%s", want, text)
		}
	}
	// Every estimate line of a statement plan carries actuals (the Batch
	// root is a scheduling artifact and is never executed as a node).
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "(rows=") && strings.Contains(line, "cost=") &&
			!strings.Contains(line, "Batch") {
			if !strings.Contains(line, "[actual rows=") {
				t.Errorf("plan line lacks actuals: %q", line)
			}
		}
	}
}

// TestTracingToggle: Run attaches a trace only when tracing is on, and a DB
// opened with tracing over the same data traces.
func TestTracingToggle(t *testing.T) {
	db := openTPCH(t, withCSE())
	res, err := db.Run(bench.Table2SQL())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("tracing off by default, but Run attached a trace")
	}

	traced := csedb.OpenOn(db.Catalog(), db.Store(), csedb.Options{CSE: withCSE(), Tracing: true})
	res, err = traced.Run(bench.Table2SQL())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("tracing on, but Run attached no trace events")
	}
	if len(res.Trace.OfKind(obs.EvFinal)) != 1 {
		t.Error("trace must end with a final event")
	}
	data, err := res.Trace.JSON()
	if err != nil || len(data) == 0 {
		t.Errorf("trace JSON rendering failed: %v", err)
	}
}

// TestMetricsRegistry: running batches populates the registry, and the dump
// carries the CSE counters.
func TestMetricsRegistry(t *testing.T) {
	db := openTPCH(t, withCSE())
	if _, err := db.Run(bench.Table2SQL()); err != nil {
		t.Fatal(err)
	}
	snap := db.Metrics().Snapshot()
	if snap["csedb_batches_total"] != 1 {
		t.Errorf("csedb_batches_total = %g, want 1", snap["csedb_batches_total"])
	}
	if snap["csedb_statements_total"] == 0 {
		t.Error("csedb_statements_total not incremented")
	}
	if snap["cse_candidates_total"] == 0 {
		t.Error("the Table 2 batch has CSE candidates; cse_candidates_total must be > 0")
	}
	if snap["cse_used_total"] == 0 {
		t.Error("the Table 2 batch uses CSEs; cse_used_total must be > 0")
	}
	if snap["cse_pruned_h4_total"] == 0 {
		t.Error("the Table 2 batch prunes via Heuristic 4; counter must be > 0")
	}
	if snap["exec_seconds_count"] != 1 {
		t.Errorf("exec_seconds_count = %g, want 1", snap["exec_seconds_count"])
	}
	if snap["optimize_seconds_count"] != 1 {
		t.Errorf("optimize_seconds_count = %g, want 1", snap["optimize_seconds_count"])
	}
	if snap["spool_materialize_seconds_count"] == 0 {
		t.Error("the Table 2 batch materializes spools; spool_materialize_seconds must record them")
	}
	dump := db.Metrics().Dump()
	for _, want := range []string{
		"csedb_batches_total 1",
		"# TYPE optimize_seconds histogram",
		"# TYPE spool_materialize_seconds histogram",
		"exec_worker_utilization",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// TestOptionsTracing: the Options.Tracing knob enables tracing from Open.
func TestOptionsTracing(t *testing.T) {
	s := *withCSE()
	db := csedb.Open(csedb.Options{CSE: &s, Tracing: true})
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	out, _, err := db.Optimize(bench.Table2SQL())
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || out.Trace.Len() == 0 {
		t.Error("Options.Tracing must make Optimize record a trace")
	}
}
