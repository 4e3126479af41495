package exec_test

import (
	"context"
	"testing"

	"repro/csedb"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/opt"
	"repro/internal/storage"
)

// benchPlan optimizes sql once against a TPC-H sf 0.01 database and returns
// everything RunWithOptions needs, so the benchmark loop measures executor
// time only (no parsing or optimization).
func benchPlan(b *testing.B, sql string) (*opt.Result, *logical.Metadata, *storage.Store) {
	b.Helper()
	s := core.DefaultSettings()
	db := csedb.Open(csedb.Options{CSE: &s, CacheBudget: -1})
	if err := db.LoadTPCH(0.01, 42); err != nil {
		b.Fatal(err)
	}
	out, md, err := db.Optimize(sql)
	if err != nil {
		b.Fatal(err)
	}
	return out.Result, md, db.Store()
}

// runExecBench runs the executor benchmark sequentially, sequentially on the
// row-at-a-time path (the column plane off), and with 8 workers.
func runExecBench(b *testing.B, sql string) {
	res, md, store := benchPlan(b, sql)
	for _, bc := range []struct {
		name string
		opts exec.Options
	}{
		{"seq", exec.Options{Parallelism: 1}},
		{"seq-row", exec.Options{Parallelism: 1, NoColPlane: true}},
		{"par8", exec.Options{Parallelism: 8}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := exec.RunWithOptions(context.Background(), res, md, store, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanFilterProject exercises a scan→filter→project statement: a
// selective predicate run as one shared-row selection pass over lineitem,
// then an arithmetic projection.
func BenchmarkScanFilterProject(b *testing.B) {
	runExecBench(b, `
select l_orderkey, l_extendedprice * (1 - l_discount) as net
from lineitem
where l_discount > 0.02 and l_quantity < 30;`)
}

// BenchmarkHashJoin exercises the parallel probe with per-worker output
// slabs: a three-way join with a residual-free equi-join spine.
func BenchmarkHashJoin(b *testing.B) {
	runExecBench(b, `
select c_nationkey, o_totalprice, l_extendedprice
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-07-01';`)
}

// BenchmarkHashAgg exercises block-parallel partial aggregation with exact
// float sums merged in block order.
func BenchmarkHashAgg(b *testing.B) {
	runExecBench(b, `
select l_suppkey, l_returnflag, sum(l_extendedprice) as rev, sum(l_quantity) as qty, count(*) as n
from lineitem
group by l_suppkey, l_returnflag;`)
}

// BenchmarkScanSelective is the column plane's best case: a highly selective
// conjunction that the selection kernels skim column by column while the row
// path evaluates the whole predicate tree per row. Compare its seq and
// seq-row cases for the row-vs-column gap.
func BenchmarkScanSelective(b *testing.B) {
	runExecBench(b, `
select l_orderkey, l_quantity, l_tax
from lineitem
where l_quantity > 49 and l_returnflag = 'R' and l_shipmode = 'AIR';`)
}
