package exec_test

import (
	"context"
	"runtime"
	"testing"

	"repro/csedb"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/exec"
	"repro/internal/opt"
)

// paperTables are the paper's four batches (Tables 1-4).
var paperTables = []struct {
	name string
	sql  string
}{
	{"table1", bench.Table1SQL()},
	{"table2", bench.Table2SQL()},
	{"table3", bench.Table3SQL()},
	{"table4", bench.Table4SQL()},
}

// analyzeDB opens a CSE-enabled TPC-H sf 0.01 database.
func analyzeDB(t *testing.T) *csedb.DB {
	t.Helper()
	s := core.DefaultSettings()
	db := csedb.Open(csedb.Options{CSE: &s})
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestAnalyzeNodeStats: Options.Analyze records per-operator actuals for
// every node of every statement plan exactly once, the root actuals match
// the statement output, and spool hit counts equal the number of spool-scan
// reads.
func TestAnalyzeNodeStats(t *testing.T) {
	db := analyzeDB(t)
	for _, tab := range paperTables {
		out, md, err := db.Optimize(tab.sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Result.CSEs) == 0 {
			t.Fatalf("%s: fixture batch must share at least one CSE", tab.name)
		}
		for _, par := range []int{1, 4} {
			res, stats, err := exec.RunWithOptions(context.Background(), out.Result, md, db.Store(),
				exec.Options{Parallelism: par, Analyze: true})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Nodes == nil {
				t.Fatalf("%s par=%d: Analyze run returned no node stats", tab.name, par)
			}

			// Every operator in every statement plan must have been recorded
			// once, and the root's row count must equal the statement's output.
			spoolScans := 0
			for i, sp := range out.Result.StatementPlans() {
				var walk func(p *opt.Plan)
				walk = func(p *opt.Plan) {
					ns, ok := stats.Nodes[p]
					if !ok {
						t.Errorf("%s par=%d: stmt %d node %s has no actuals", tab.name, par, i, p.Op)
						return
					}
					if ns.Execs != 1 {
						t.Errorf("%s par=%d: stmt %d node %s executed %d times", tab.name, par, i, p.Op, ns.Execs)
					}
					if p.Op == opt.PSpoolScan {
						spoolScans++
					}
					for _, ch := range p.Children {
						walk(ch)
					}
				}
				walk(sp)
				if got := stats.Nodes[sp].Rows; got != len(res[i].Rows) {
					t.Errorf("%s par=%d: stmt %d root rows = %d, output has %d", tab.name, par, i, got, len(res[i].Rows))
				}
			}

			hits := 0
			for _, n := range stats.SpoolHits {
				hits += n
			}
			if spoolScans == 0 || hits < spoolScans {
				t.Errorf("%s par=%d: %d spool hits recorded for %d statement-plan spool scans", tab.name, par, hits, spoolScans)
			}
		}
	}

	// The plain path carries no node stats.
	out, md, err := db.Optimize(bench.Table2SQL())
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := exec.RunWithOptions(context.Background(), out.Result, md, db.Store(), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != nil {
		t.Error("non-Analyze run must not allocate node stats")
	}
	if len(stats.SpoolHits) == 0 {
		t.Error("spool hit counts must be maintained even without Analyze")
	}
}

// TestAnalyzeSameDataPath: EXPLAIN ANALYZE times the production data path.
// An Analyze run and a plain run of the same plan dispatch the same morsels,
// run the same column-plane kernels and hash passes, and return the same
// results, sequentially and on four workers.
func TestAnalyzeSameDataPath(t *testing.T) {
	// Intra-op degree is clamped to GOMAXPROCS: raise it so four workers
	// dispatch morsels on any machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db := analyzeDB(t)
	for _, tab := range paperTables {
		out, md, err := db.Optimize(tab.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			run := func(analyze bool) (string, *exec.Stats) {
				res, stats, err := exec.RunWithOptions(context.Background(), out.Result, md, db.Store(),
					exec.Options{Parallelism: par, Analyze: analyze})
				if err != nil {
					t.Fatal(err)
				}
				return difftest.Normalize(res), stats
			}
			plainRes, plain := run(false)
			analyzedRes, analyzed := run(true)
			for _, m := range []struct {
				name            string
				plain, analyzed int
			}{
				{"Morsels", plain.Morsels, analyzed.Morsels},
				{"ParallelOps", plain.ParallelOps, analyzed.ParallelOps},
				{"ColSelections", plain.ColSelections, analyzed.ColSelections},
				{"ColHashPasses", plain.ColHashPasses, analyzed.ColHashPasses},
			} {
				if m.plain != m.analyzed {
					t.Errorf("%s par=%d: %s = %d plain, %d under Analyze", tab.name, par, m.name, m.plain, m.analyzed)
				}
			}
			if plainRes != analyzedRes {
				t.Errorf("%s par=%d: Analyze changed the results:\n%s", tab.name, par, difftest.Diff(plainRes, analyzedRes))
			}
		}
	}
}
