package csedb_test

import (
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/csedb"
	"repro/internal/bench"
	"repro/internal/sqltypes"
)

// openTPCHOpts opens a TPC-H sf 0.01 database with full execution options
// (openTPCH only controls optimizer settings).
func openTPCHOpts(t testing.TB, opts csedb.Options) *csedb.DB {
	t.Helper()
	db := csedb.Open(opts)
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	return db
}

// exactRows renders rows losslessly (Datum.String round-trips floats), so
// equality here is byte-identity including row order.
func exactRows(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "\t")
	}
	return out
}

// TestParallelExecutorByteIdentical is the chunked executor's differential
// property test: for the TPC-H query suite and the spool-heavy benchmark
// batches, the morsel-parallel executor must produce byte-identical results
// to the sequential reference — same rows, same order, same float bits — at
// any chunk size, with every spool materialized exactly once. Exact
// aggregate summation is what makes float results independent of the input
// partitioning.
func TestParallelExecutorByteIdentical(t *testing.T) {
	// The executor clamps intra-operator parallelism to GOMAXPROCS; raise it
	// so the morsel machinery engages even on single-CPU runners.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	queries := map[string]string{
		"batch-table1": bench.Table1SQL(),
		"batch-table2": bench.Table2SQL(),
		"batch-table4": bench.Table4SQL(),
	}
	for name, sql := range tpchLike {
		queries[name] = sql
	}
	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	sort.Strings(names)

	variants := []struct {
		name      string
		chunkSize int
	}{
		{"workers8-chunk1024", 1024},
		{"workers8-chunk1", 1}, // maximal morsel interleave
	}

	for _, name := range names {
		sql := queries[name]
		t.Run(name, func(t *testing.T) {
			ref := openTPCHOpts(t, csedb.Options{CSE: withCSE(), ExecParallelism: 1, CacheBudget: -1})
			want, err := ref.Run(sql)
			if err != nil {
				t.Fatalf("sequential reference run: %v", err)
			}
			for _, v := range variants {
				v := v
				t.Run(v.name, func(t *testing.T) {
					db := openTPCHOpts(t, csedb.Options{
						CSE:             withCSE(),
						ExecParallelism: 8,
						ExecChunkSize:   v.chunkSize,
						CacheBudget:     -1,
					})
					got, err := db.Run(sql)
					if err != nil {
						t.Fatalf("parallel run: %v", err)
					}
					if len(got.Statements) != len(want.Statements) {
						t.Fatalf("statement counts differ: %d vs %d", len(got.Statements), len(want.Statements))
					}
					for i := range want.Statements {
						ws, gs := want.Statements[i], got.Statements[i]
						if strings.Join(gs.Names, ",") != strings.Join(ws.Names, ",") {
							t.Errorf("statement %d column names differ: %v vs %v", i+1, gs.Names, ws.Names)
						}
						wr, gr := exactRows(ws.Rows), exactRows(gs.Rows)
						if len(gr) != len(wr) {
							t.Errorf("statement %d: %d rows, want %d", i+1, len(gr), len(wr))
							continue
						}
						for j := range wr {
							if gr[j] != wr[j] {
								t.Errorf("statement %d row %d not byte-identical:\n  parallel:   %s\n  sequential: %s",
									i+1, j, gr[j], wr[j])
								break
							}
						}
					}
					es := got.ExecStats
					for id, runs := range es.SpoolRuns {
						if runs != 1 {
							t.Errorf("CSE %d materialized %d times, want exactly once", id, runs)
						}
					}
					if v.chunkSize == 1 && es.Morsels == 0 {
						t.Error("chunk size 1 run dispatched no morsels — intra-op parallelism never engaged")
					}
				})
			}
		})
	}
}

// TestExplainAnalyzeReportsParallelism checks the observability surface: a
// parallel EXPLAIN ANALYZE annotates morsel-parallel operators with their
// achieved degree and reports batch-wide morsel totals in the footer.
func TestExplainAnalyzeReportsParallelism(t *testing.T) {
	// See TestParallelExecutorByteIdentical: intra-op degree is clamped to
	// GOMAXPROCS, so par= annotations need more than one schedulable CPU.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	db := openTPCHOpts(t, csedb.Options{CSE: withCSE(), ExecParallelism: 8, ExecChunkSize: 256, CacheBudget: -1})
	out, err := db.ExplainAnalyze(tpchLike["q6"])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, " par=") {
		t.Errorf("EXPLAIN ANALYZE missing per-operator par= annotation:\n%s", out)
	}
	if !strings.Contains(out, "morsels=") || !strings.Contains(out, "parallel-ops=") {
		t.Errorf("EXPLAIN ANALYZE footer missing morsel totals:\n%s", out)
	}

	seq := openTPCHOpts(t, csedb.Options{CSE: withCSE(), ExecParallelism: 1, CacheBudget: -1})
	out, err = seq.ExplainAnalyze(tpchLike["q6"])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, " par=") {
		t.Errorf("sequential EXPLAIN ANALYZE must not report par=:\n%s", out)
	}
}
