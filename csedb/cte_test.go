package csedb_test

import (
	"strings"
	"testing"

	"repro/internal/difftest"
)

// TestCTEBasicInlining: a WITH-defined SPJ expression referenced once.
func TestCTEBasicInlining(t *testing.T) {
	db := openTPCH(t, withCSE())
	res, err := db.Run(`
with co as (
  select c_custkey, c_nationkey, o_orderkey, o_totalprice
  from customer, orders
  where c_custkey = o_custkey and o_orderdate < '1996-07-01')
select c_nationkey, sum(o_totalprice) as v
from co
group by c_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	// Must match the hand-expanded query.
	ref, err := db.Run(`
select c_nationkey, sum(o_totalprice) as v
from customer, orders
where c_custkey = o_custkey and o_orderdate < '1996-07-01'
group by c_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	if d := difftest.Diff(rowsText(ref.Statements[0].Rows), rowsText(res.Statements[0].Rows)); d != "" {
		t.Errorf("CTE result differs from the expansion (baseline) at %s", d)
	}
}

// TestCTEJoinedWithTables: a CTE participating in further joins, with
// qualified references to its columns.
func TestCTEJoinedWithTables(t *testing.T) {
	db := openTPCH(t, withCSE())
	res, err := db.Run(`
with big_orders as (
  select o_orderkey, o_custkey, o_totalprice
  from orders
  where o_totalprice > 200000)
select n_name, count(*) as n
from big_orders b, customer, nation
where b.o_custkey = c_custkey and c_nationkey = n_nationkey
group by n_name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Statements[0].Rows) == 0 {
		t.Error("no results — CTE join broken or predicate too tight")
	}
}

// TestCTEReferencedTwiceIsShared is the §6.1 story: a WITH referenced from
// two statements creates similar subexpressions; after inlining, the CSE
// machinery re-detects them and computes the shared part once — possibly at
// a better granularity than the user's WITH (here: with an aggregation
// pushed in).
func TestCTEReferencedTwiceIsShared(t *testing.T) {
	db := openTPCH(t, withCSE())
	sql := `
with col as (
  select c_nationkey, c_mktsegment, l_extendedprice, l_quantity
  from customer, orders, lineitem
  where c_custkey = o_custkey and o_orderkey = l_orderkey
    and o_orderdate < '1996-07-01')
select c_nationkey, sum(l_extendedprice) as le from col group by c_nationkey;

with col as (
  select c_nationkey, c_mktsegment, l_extendedprice, l_quantity
  from customer, orders, lineitem
  where c_custkey = o_custkey and o_orderkey = l_orderkey
    and o_orderdate < '1996-07-01')
select c_mktsegment, sum(l_quantity) as lq from col group by c_mktsegment;
`
	res, err := db.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.UsedCSEs) == 0 {
		t.Fatalf("the doubly-referenced CTE must be shared; candidates: %v", res.Stats.CandidateLabels)
	}
	// The chosen covering expression is an aggregation — tighter than the
	// user's raw-join CTE.
	usedLabel := res.Stats.CandidateLabels[res.Stats.UsedCSEs[0]]
	if !strings.HasPrefix(usedLabel, "γ(") {
		t.Errorf("optimizer should share an aggregated covering expression, got %s", usedLabel)
	}

	// Results must match CSE-off execution.
	dbOff := openTPCH(t, noCSE())
	off, err := dbOff.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, off, res)
}

// TestCTEErrors: unsupported CTE shapes are rejected with clear messages.
func TestCTEErrors(t *testing.T) {
	db := openTPCH(t, withCSE())
	cases := []struct {
		sql, want string
	}{
		{"with x as (select c_nationkey, count(*) as n from customer group by c_nationkey) select n from x",
			"only select-project-join"},
		{"with x as (select c_acctbal + 1 as b from customer) select b from x",
			"plain column"},
		{"with x as (select c_name from customer), x as (select c_name from customer) select c_name from x",
			"duplicate WITH name"},
		{"with x as (select c_name, c_name from customer) select c_name from x",
			"duplicate output column"},
		{"create materialized view v as with x as (select c_name from customer) select c_name from x",
			"WITH clauses are not maintainable"},
	}
	for _, c := range cases {
		_, err := db.Run(c.sql)
		if err == nil {
			t.Errorf("Run(%q) succeeded, want error about %q", c.sql, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(%q) error %q, want mention of %q", c.sql, err, c.want)
		}
	}
}

// TestCTEShadowsTable: a CTE named like a base table wins.
func TestCTEShadowsTable(t *testing.T) {
	db := openTPCH(t, withCSE())
	res, err := db.Run(`
with nation as (select r_regionkey, r_name from region)
select count(*) as n from nation`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Statements[0].Rows[0][0].Int(); got != 5 {
		t.Errorf("shadowing CTE returned %d rows, want region's 5", got)
	}
}

// TestNestedCTE: a CTE referencing another CTE.
func TestNestedCTE(t *testing.T) {
	db := openTPCH(t, withCSE())
	res, err := db.Run(`
with good as (select c_custkey, c_nationkey from customer where c_acctbal > 0),
     goodorders as (select g.c_nationkey, o.o_totalprice from good g, orders o where g.c_custkey = o.o_custkey)
select c_nationkey, sum(o_totalprice) as v from goodorders group by c_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.Run(`
select c_nationkey, sum(o_totalprice) as v
from customer, orders
where c_acctbal > 0 and c_custkey = o_custkey
group by c_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	if d := difftest.Diff(rowsText(ref.Statements[0].Rows), rowsText(res.Statements[0].Rows)); d != "" {
		t.Errorf("nested CTE result differs from the expansion (baseline) at %s", d)
	}
}

// TestLikeResidualsInCovering: consumers differing only in LIKE predicates
// share a covering expression whose OR covering keeps the LIKE disjuncts
// (LIKE is not hull-able); compensation re-applies each consumer's pattern.
func TestLikeResidualsInCovering(t *testing.T) {
	dbOn := openTPCH(t, withCSE())
	dbOff := openTPCH(t, noCSE())
	sql := `
select c_nationkey, sum(o_totalprice) as v
from customer, orders
where c_custkey = o_custkey and c_mktsegment like 'B%'
group by c_nationkey;
select c_nationkey, count(*) as n
from customer, orders
where c_custkey = o_custkey and c_mktsegment like '%RY'
group by c_nationkey;
`
	on, err := dbOn.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	off, err := dbOff.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, off, on)
	// Sharing may or may not win here; if it did, the covering must
	// mention LIKE.
	if len(on.Stats.UsedCSEs) > 0 {
		label := on.Stats.CandidateLabels[on.Stats.UsedCSEs[0]]
		if !strings.Contains(label, "LIKE") {
			t.Errorf("covering lost the LIKE disjuncts: %s", label)
		}
	}
}

// TestExplainCreateView: plans for DDL batches render without executing.
func TestExplainCreateView(t *testing.T) {
	db := openTPCH(t, withCSE())
	plan, err := db.Explain(`create materialized view ev as
select c_nationkey, count(*) as n from customer group by c_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Scan customer") {
		t.Errorf("explain of DDL missing the defining plan:\n%s", plan)
	}
	// Explain must not have materialized the view.
	if _, err := db.QueryView("ev"); err == nil {
		t.Error("Explain must not create the view")
	}
}
