package core_test

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// optimizeTraced runs the traced optimizer over sql and returns the output.
func optimizeTraced(t *testing.T, sf float64, sql string) (*core.Output, *obs.Trace) {
	t.Helper()
	cat := testCatalog(t, sf)
	m := buildMemo(t, cat, sql)
	tr := obs.NewTrace()
	out, err := core.OptimizeObserved(m, core.DefaultSettings(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out, tr
}

const example5SQL = `
select n_name, sum(l_extendedprice) as s
from nation, region, customer, orders, lineitem
where n_regionkey = r_regionkey and c_nationkey = n_nationkey
  and c_custkey = o_custkey and o_orderkey = l_orderkey and r_regionkey < 3
group by n_name;
select r_name, sum(ps_supplycost) as s
from nation, region, supplier, partsupp
where n_regionkey = r_regionkey and s_nationkey = n_nationkey
  and ps_suppkey = s_suppkey and r_regionkey < 4
group by r_name;
`

// TestTraceH1Prune: the Example 5 fixture (cheap shared nation⋈region join)
// must emit an h1 prune event carrying the α threshold evidence.
func TestTraceH1Prune(t *testing.T) {
	out, tr := optimizeTraced(t, 0.01, example5SQL)
	pruned := 0
	for _, e := range tr.OfKind(obs.EvH1) {
		for _, k := range []string{"sum_lower", "alpha", "cq", "threshold"} {
			if _, ok := e.Values[k]; !ok {
				t.Errorf("h1 event missing value %q: %s", k, e.String())
			}
		}
		if e.Values["alpha"] != 0.10 {
			t.Errorf("h1 alpha = %g, want the paper's 0.10", e.Values["alpha"])
		}
		if got, want := e.Values["threshold"], e.Values["alpha"]*e.Values["cq"]; math.Abs(got-want) > 1e-9 {
			t.Errorf("h1 threshold = %g, want alpha*cq = %g", got, want)
		}
		if e.Pruned {
			pruned++
			if e.Values["sum_lower"] >= e.Values["threshold"] {
				t.Errorf("pruned h1 event with sum_lower >= threshold: %s", e.String())
			}
		}
	}
	if pruned == 0 {
		t.Error("Example 5 must prune at least one unit via Heuristic 1")
	}
	if out.Stats.PrunedH1 != pruned {
		t.Errorf("Stats.PrunedH1 = %d, trace has %d prune events", out.Stats.PrunedH1, pruned)
	}
}

// TestTraceH2Prune: the Example 6 fixture (select * consumer) must emit an h2
// prune event whose threshold matches cr + (upper+cw)/n.
func TestTraceH2Prune(t *testing.T) {
	out, tr := optimizeTraced(t, 0.01, `
select * from customer, orders where c_custkey = o_custkey;
select c_name, c_nationkey, o_totalprice from customer, orders where c_custkey = o_custkey;
`)
	events := tr.OfKind(obs.EvH2)
	if len(events) == 0 {
		t.Fatal("Example 6 must drop the select-* consumer via Heuristic 2")
	}
	for _, e := range events {
		if !e.Pruned {
			t.Errorf("h2 events are recorded only for drops, got kept: %s", e.String())
		}
		want := e.Values["read_cost"] + (e.Values["upper"]+e.Values["write_cost"])/e.Values["consumers"]
		if got := e.Values["threshold"]; math.Abs(got-want) > 1e-9 {
			t.Errorf("h2 threshold = %g, want cr+(upper+cw)/n = %g", got, want)
		}
		if e.Values["upper"] >= e.Values["threshold"] {
			t.Errorf("h2 dropped a consumer whose upper >= threshold: %s", e.String())
		}
	}
	if out.Stats.PrunedH2 != len(events) {
		t.Errorf("Stats.PrunedH2 = %d, trace has %d events", out.Stats.PrunedH2, len(events))
	}
}

// TestTraceH3Drop: the Example 7 fixture (indexed point lookup vs huge range)
// must emit an h3-drop event with a non-positive best Δ.
func TestTraceH3Drop(t *testing.T) {
	out, tr := optimizeTraced(t, 0.02, `
select o_orderkey, sum(l_extendedprice) as v
from orders, lineitem
where o_orderkey = l_orderkey and o_orderdate = '1995-01-01'
group by o_orderkey;
select o_orderkey, sum(l_extendedprice) as v
from orders, lineitem
where o_orderkey = l_orderkey and o_orderdate > '1995-01-01'
group by o_orderkey;
`)
	drops := tr.OfKind(obs.EvH3Drop)
	if len(drops) == 0 {
		t.Fatal("Example 7 must discard trivial specs via Heuristic 3")
	}
	for _, e := range drops {
		if !e.Pruned {
			t.Errorf("h3-drop event not marked pruned: %s", e.String())
		}
		if e.Values["best_delta"] > 0 {
			t.Errorf("h3-drop with positive Δ benefit %g: %s", e.Values["best_delta"], e.String())
		}
	}
	if out.Stats.PrunedH3 != len(drops) {
		t.Errorf("Stats.PrunedH3 = %d, trace has %d drops", out.Stats.PrunedH3, len(drops))
	}
	// Every executed merge must carry a positive Δ and its cost evidence.
	for _, e := range tr.OfKind(obs.EvH3Merge) {
		if e.Values["delta"] <= 0 {
			t.Errorf("h3-merge with non-positive Δ: %s", e.String())
		}
	}
}

// TestTraceH4Prune: the Example 9 fixture (join contained in its aggregation)
// must emit an h4 prune event with the β containment evidence.
func TestTraceH4Prune(t *testing.T) {
	out, tr := optimizeTraced(t, 0.01, example1SQL)
	events := tr.OfKind(obs.EvH4)
	if len(events) == 0 {
		t.Fatal("Example 9 must discard the contained join via Heuristic 4")
	}
	for _, e := range events {
		if !e.Pruned {
			t.Errorf("h4 events are recorded only for discards, got kept: %s", e.String())
		}
		if e.Values["beta"] != 0.90 {
			t.Errorf("h4 beta = %g, want the paper's 0.90", e.Values["beta"])
		}
		if e.Values["bytes"] <= e.Values["beta"]*e.Values["container_bytes"] {
			t.Errorf("h4 discarded a candidate below the β size threshold: %s", e.String())
		}
	}
	if out.Stats.PrunedH4 != len(events) {
		t.Errorf("Stats.PrunedH4 = %d, trace has %d events", out.Stats.PrunedH4, len(events))
	}
}

// TestTraceEndToEnd: the Example 1 batch produces a full decision trail —
// signature sets, candidates, charge groups, subset reoptimizations matching
// Stats.CSEOptimizations, and a final event consistent with Stats — and the
// whole trace survives a JSON round trip.
func TestTraceEndToEnd(t *testing.T) {
	out, tr := optimizeTraced(t, 0.01, example1SQL)
	if len(tr.OfKind(obs.EvSignatureSet)) == 0 {
		t.Error("no signature-set events recorded")
	}
	if got := len(tr.OfKind(obs.EvCandidate)); got != out.Stats.Candidates {
		t.Errorf("candidate events = %d, Stats.Candidates = %d", got, out.Stats.Candidates)
	}
	if got := len(tr.OfKind(obs.EvCharge)); got != out.Stats.Candidates {
		t.Errorf("charge events = %d, want one per candidate (%d)", got, out.Stats.Candidates)
	}
	if got := len(tr.OfKind(obs.EvSubsetOpt)); got != out.Stats.CSEOptimizations {
		t.Errorf("subset-opt events = %d, Stats.CSEOptimizations = %d", got, out.Stats.CSEOptimizations)
	}
	finals := tr.OfKind(obs.EvFinal)
	if len(finals) != 1 {
		t.Fatalf("final events = %d, want exactly 1", len(finals))
	}
	fe := finals[0]
	if fe.Values["base_cost"] != out.Stats.BaseCost || fe.Values["final_cost"] != out.Stats.FinalCost {
		t.Errorf("final event %v disagrees with Stats (base %.2f final %.2f)",
			fe.Values, out.Stats.BaseCost, out.Stats.FinalCost)
	}
	if len(fe.Used) != len(out.Stats.UsedCSEs) {
		t.Errorf("final event used = %v, Stats.UsedCSEs = %v", fe.Used, out.Stats.UsedCSEs)
	}
	if out.Trace != tr {
		t.Error("Output.Trace must carry the supplied trace")
	}

	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace JSON round trip: %v", err)
	}
	if len(events) != tr.Len() {
		t.Errorf("JSON has %d events, trace has %d", len(events), tr.Len())
	}
}

// TestUntracedOptimizeRecordsCounters: the prune counters are maintained even
// without a trace, and Optimize leaves Output.Trace nil.
func TestUntracedOptimizeRecordsCounters(t *testing.T) {
	cat := testCatalog(t, 0.01)
	m := buildMemo(t, cat, example1SQL)
	out, err := core.Optimize(m, core.DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace != nil {
		t.Error("Optimize must not attach a trace")
	}
	if out.Stats.PrunedH4 == 0 {
		t.Error("PrunedH4 counter must be maintained without tracing")
	}
}
