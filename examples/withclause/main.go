// Withclause: the paper's §6.1 point about user-defined sharing. SQL lets
// users mark sharable subexpressions with WITH, but "only one rewrite
// achieves optimal performance ... an optimizer can consider all options and
// choose among them in a cost-based manner". This example defines a raw-join
// CTE, references it from two queries, and shows the optimizer discarding
// the user's granularity in favour of a tighter covering aggregate.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/csedb"
)

const batch = `
with col as (
  select c_nationkey, c_mktsegment, l_extendedprice, l_quantity
  from customer, orders, lineitem
  where c_custkey = o_custkey and o_orderkey = l_orderkey
    and o_orderdate < '1996-07-01')
select c_nationkey, sum(l_extendedprice) as revenue
from col
group by c_nationkey;

with col as (
  select c_nationkey, c_mktsegment, l_extendedprice, l_quantity
  from customer, orders, lineitem
  where c_custkey = o_custkey and o_orderkey = l_orderkey
    and o_orderdate < '1996-07-01')
select c_mktsegment, sum(l_quantity) as volume
from col
group by c_mktsegment;
`

func main() {
	db := csedb.Open(csedb.Options{})
	if err := db.LoadTPCH(0.02, 5); err != nil {
		log.Fatal(err)
	}

	fmt.Println("The user marked the raw 3-way join as sharable with WITH.")
	fmt.Println("The optimizer inlines it, re-detects the similarity, and shares")
	fmt.Println("something better — a covering AGGREGATE over the join:")
	fmt.Println()

	out, md, err := db.Optimize(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out.Describe(out.Optimizer.M))
	_ = md

	res, err := db.Run(batch)
	if err != nil {
		log.Fatal(err)
	}
	used := res.Stats.CandidateLabels[res.Stats.UsedCSEs[0]]
	fmt.Printf("chosen covering subexpression: %s\n", used)
	if strings.HasPrefix(used, "γ(") {
		fmt.Println("→ aggregated before spooling: smaller work table than the")
		fmt.Println("  user's raw-join CTE would have materialized.")
	}
	for id, n := range res.ExecStats.SpoolRows {
		fmt.Printf("spool CSE%d materialized once: %d rows\n", id, n)
	}
	fmt.Printf("\nestimated cost %.2f with sharing vs %.2f without\n",
		res.Stats.FinalCost, res.Stats.BaseCost)
	fmt.Printf("first result rows: %s | %s\n",
		res.Statements[0].Rows[0].String(), res.Statements[1].Rows[0].String())
}
