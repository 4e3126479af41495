// Package bench defines the workloads and measurement harness that
// regenerate every table and figure of the paper's evaluation (§6) for the
// csebench command. The workload SQL is also what the benchmark program,
// the root ablation benchmarks and many tests run.
package bench

import (
	"fmt"
	"strings"
)

// Example1Q1, Q2, Q3 are the paper's Example 1 batch (reconstructed per the
// rewrites shown in §6.1: the queries select and filter on c_nationkey and
// c_mktsegment; Q3 additionally joins nation and groups by n_regionkey).
const (
	Example1Q1 = `
select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-07-01' and c_nationkey > 0 and c_nationkey < 20
group by c_nationkey, c_mktsegment`

	Example1Q2 = `
select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-07-01' and c_nationkey > 5 and c_nationkey < 25
group by c_nationkey`

	Example1Q3 = `
select n_regionkey, sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem, nation
where c_custkey = o_custkey and o_orderkey = l_orderkey and c_nationkey = n_nationkey
  and o_orderdate < '1996-07-01' and c_nationkey > 2 and c_nationkey < 24
group by n_regionkey`

	// Q4 is §6.2's additional query over part⋈orders⋈lineitem (run verbatim;
	// the schema carries p_availqty on part for this purpose).
	Q4 = `
select p_type, sum(p_availqty) as qty
from part, orders, lineitem
where p_partkey = l_partkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-07-01'
group by p_type`

	// Q8 is §6.3's nested query (TPC-H Q11-like): the main block and the
	// HAVING scalar subquery both aggregate over customer⋈orders⋈lineitem.
	Q8 = `
select c_nationkey, n_name, sum(l_discount) as totaldisc
from customer, orders, lineitem, nation
where c_custkey = o_custkey and o_orderkey = l_orderkey and c_nationkey = n_nationkey
group by c_nationkey, n_name
having sum(l_discount) > (
  select sum(l_discount) / 25
  from customer, orders, lineitem
  where c_custkey = o_custkey and o_orderkey = l_orderkey)
order by totaldisc desc`
)

// Table1SQL is the Example 1 batch.
func Table1SQL() string {
	return join(Example1Q1, Example1Q2, Example1Q3)
}

// Table2SQL adds Q4 (§6.2, stacked CSEs).
func Table2SQL() string {
	return join(Example1Q1, Example1Q2, Example1Q3, Q4)
}

// Table3SQL is the nested query (§6.3).
func Table3SQL() string { return Q8 }

// Table4SQL is §6.5's complex-join batch: two queries each joining all
// eight TPC-H tables, aggregating by region, with different local
// predicates.
func Table4SQL() string {
	q := func(date string, size int, nkLo, nkHi int) string {
		return fmt.Sprintf(`
select r_name, sum(l_extendedprice) as rev, sum(ps_supplycost) as cost
from region, nation, customer, orders, lineitem, supplier, part, partsupp
where r_regionkey = n_regionkey and n_nationkey = c_nationkey
  and c_custkey = o_custkey and o_orderkey = l_orderkey
  and l_suppkey = s_suppkey and l_partkey = p_partkey
  and ps_partkey = l_partkey and ps_suppkey = l_suppkey
  and o_orderdate < '%s' and p_size < %d
  and c_nationkey > %d and c_nationkey < %d
group by r_name`, date, size, nkLo, nkHi)
	}
	return join(
		q("1996-07-01", 30, 0, 20),
		q("1996-07-01", 40, 3, 24),
	)
}

// Figure8SQL builds a batch of n similar queries for the scale-up
// experiment: each joins customer⋈orders⋈lineitem with varying c_nationkey
// ranges and grouping columns; every third query joins nation, every third
// also region — matching §6.5's description.
func Figure8SQL(n int) string {
	qs := make([]string, n)
	for i := 0; i < n; i++ {
		lo := i % 5
		hi := 25 - (i % 4)
		switch i % 3 {
		case 0:
			qs[i] = fmt.Sprintf(`
select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-07-01' and c_nationkey > %d and c_nationkey < %d
group by c_nationkey, c_mktsegment`, lo, hi)
		case 1:
			qs[i] = fmt.Sprintf(`
select n_name, sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem, nation
where c_custkey = o_custkey and o_orderkey = l_orderkey and c_nationkey = n_nationkey
  and o_orderdate < '1996-07-01' and c_nationkey > %d and c_nationkey < %d
group by n_name`, lo, hi)
		default:
			qs[i] = fmt.Sprintf(`
select r_name, sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem, nation, region
where c_custkey = o_custkey and o_orderkey = l_orderkey and c_nationkey = n_nationkey
  and n_regionkey = r_regionkey
  and o_orderdate < '1996-07-01' and c_nationkey > %d and c_nationkey < %d
group by r_name`, lo, hi)
		}
	}
	return join(qs...)
}

// ViewDDL returns CREATE MATERIALIZED VIEW statements whose definitions are
// the Example 1 queries (§6.4's setup).
func ViewDDL() string {
	return join(
		"create materialized view mview1 as "+Example1Q1,
		"create materialized view mview2 as "+Example1Q2,
		"create materialized view mview3 as "+Example1Q3,
	)
}

// NoSharingSQL is a batch of unrelated queries with no common
// subexpressions, used to measure detection overhead (§6's "could not
// reliably measure it" claim).
func NoSharingSQL() string {
	return join(
		`select c_nationkey, count(*) as n from customer group by c_nationkey`,
		`select o_orderpriority, sum(o_totalprice) as v from orders where o_orderdate < '1995-01-01' group by o_orderpriority`,
		`select p_brand, max(p_retailprice) as p from part group by p_brand`,
		`select s_nationkey, avg(s_acctbal) as b from supplier group by s_nationkey`,
	)
}

func join(qs ...string) string {
	return strings.Join(qs, ";\n") + ";"
}
