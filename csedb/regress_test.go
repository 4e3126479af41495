package csedb_test

import (
	"testing"

	"repro/internal/difftest"
)

// TestRegressionNoHeuristicsManyCandidates pins an optimizer bug found by
// the qgen-driven property tests: with heuristics disabled this 5-table
// batch yields 11 candidates, and the alternative-combination pruning cap
// used to drop every CSE-free combination — chargeCandidate then discarded
// the remaining single-use alternatives and the whole optimization failed
// with "no valid plan with CSE set [0 1 2 3 4 5 6 7 8 9 10]". The pruner now
// always retains the cheapest clean combination.
func TestRegressionNoHeuristicsManyCandidates(t *testing.T) {
	db := openTPCH(t, noHeuristics())
	sql := `
select c_nationkey, count(*) as a0
from part, lineitem, orders, customer
where p_partkey = l_partkey
  and l_orderkey = o_orderkey
  and o_custkey = c_custkey
  and o_orderdate < '1994-12-31'
  and c_nationkey > 2 and c_nationkey < 14
group by c_nationkey
order by a0 desc;

select o_orderstatus, count(*) as a0
from part, lineitem, orders, supplier, partsupp
where p_partkey = l_partkey
  and l_orderkey = o_orderkey
  and l_suppkey = s_suppkey
  and p_partkey = ps_partkey
  and o_orderdate < '1994-12-31'
  and o_orderpriority = '2-HIGH'
group by o_orderstatus
order by a0;

select p_mfgr, count(*) as a0
from part, lineitem, orders, supplier, customer
where p_partkey = l_partkey
  and l_orderkey = o_orderkey
  and l_suppkey = s_suppkey
  and o_custkey = c_custkey
  and o_orderdate < '1994-12-31'
group by p_mfgr
order by a0;`
	if _, err := db.Run(sql); err != nil {
		t.Fatalf("no-heuristics optimization of a many-candidate batch failed: %v", err)
	}

	// The same batch must agree with the no-CSE baseline.
	base := openTPCH(t, noCSE())
	want, err := base.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	if d := difftest.Diff(difftest.Normalize(want.Statements), difftest.Normalize(got.Statements)); d != "" {
		t.Fatalf("no-heuristics results differ from baseline at %s", d)
	}
}
