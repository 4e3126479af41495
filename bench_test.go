package repro_test

// Benchmarks regenerating the paper's evaluation (§6): one benchmark per
// table and figure, each with a sub-benchmark per optimizer mode, so
//
//	go test -bench=. -benchmem
//
// reports the execution-time columns of every table. Custom metrics carry
// the remaining columns: opt-ms (optimization time), est-cost (estimated
// cost), cands (candidate CSEs) and cse-opts (CSE reoptimizations).
//
// The dataset defaults to scale factor 0.05 (the paper used TPC-H SF=1 on
// 2007 hardware); set -benchtime and the CSEDB_SF environment variable to
// push the scale up.

import (
	"os"
	"strconv"
	"testing"

	"repro/csedb"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/qgen"
)

func benchConfig() bench.Config {
	cfg := bench.Config{ScaleFactor: 0.05, Seed: 42}
	if v := os.Getenv("CSEDB_SF"); v != "" {
		if sf, err := strconv.ParseFloat(v, 64); err == nil && sf > 0 {
			cfg.ScaleFactor = sf
		}
	}
	return cfg
}

// benchBatch measures a batch under each mode. Databases are rebuilt per
// iteration set (outside the timer); each iteration re-optimizes and
// re-executes the batch, which is what the paper's numbers time.
func benchBatch(b *testing.B, sql string) {
	cfg := benchConfig()
	for _, mode := range []bench.Mode{bench.NoCSE, bench.WithCSE, bench.NoHeuristics} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			db, err := bench.NewDB(cfg, mode)
			if err != nil {
				b.Fatal(err)
			}
			var optNs, cands, cseOpts int64
			var est float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Run(sql)
				if err != nil {
					b.Fatal(err)
				}
				optNs += res.OptimizeTime.Nanoseconds()
				est = res.EstimatedCost
				cands = int64(res.Stats.Candidates)
				cseOpts = int64(res.Stats.CSEOptimizations)
			}
			b.StopTimer()
			b.ReportMetric(float64(optNs)/float64(b.N)/1e6, "opt-ms/op")
			b.ReportMetric(est, "est-cost")
			b.ReportMetric(float64(cands), "cands")
			b.ReportMetric(float64(cseOpts), "cse-opts")
		})
	}
}

// BenchmarkTable1QueryBatch reproduces Table 1: the Example 1 batch
// (Q1, Q2, Q3).
func BenchmarkTable1QueryBatch(b *testing.B) { benchBatch(b, bench.Table1SQL()) }

// BenchmarkTable2StackedCSE reproduces Table 2: Q1–Q4 with stacked CSEs
// (§6.2).
func BenchmarkTable2StackedCSE(b *testing.B) { benchBatch(b, bench.Table2SQL()) }

// BenchmarkTable3NestedQuery reproduces Table 3: the TPC-H Q11-like nested
// query (§6.3).
func BenchmarkTable3NestedQuery(b *testing.B) { benchBatch(b, bench.Table3SQL()) }

// BenchmarkTable4ComplexJoins reproduces Table 4: two 8-table joins (§6.5).
func BenchmarkTable4ComplexJoins(b *testing.B) { benchBatch(b, bench.Table4SQL()) }

// BenchmarkFigure8Scaleup reproduces Figure 8: batches of 2..10 similar
// queries; per batch size, the CSE-optimized execution is timed and the
// estimated-cost series is attached as metrics.
func BenchmarkFigure8Scaleup(b *testing.B) {
	cfg := benchConfig()
	for n := 2; n <= 10; n += 2 {
		sql := bench.Figure8SQL(n)
		b.Run("queries="+strconv.Itoa(n), func(b *testing.B) {
			dbOff, err := bench.NewDB(cfg, bench.NoCSE)
			if err != nil {
				b.Fatal(err)
			}
			dbOn, err := bench.NewDB(cfg, bench.WithCSE)
			if err != nil {
				b.Fatal(err)
			}
			off, err := dbOff.Run(sql)
			if err != nil {
				b.Fatal(err)
			}
			var costOn, optNs float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dbOn.Run(sql)
				if err != nil {
					b.Fatal(err)
				}
				costOn = res.EstimatedCost
				optNs += float64(res.OptimizeTime.Nanoseconds())
			}
			b.StopTimer()
			b.ReportMetric(off.EstimatedCost, "est-cost-nocse")
			b.ReportMetric(costOn, "est-cost-cse")
			b.ReportMetric(optNs/float64(b.N)/1e6, "opt-ms/op")
		})
	}
}

// BenchmarkViewMaintenance reproduces §6.4: three materialized views
// maintained jointly after an insert into customer. Each op includes the
// unavoidable fresh-database setup (maintenance mutates the views), so the
// maintenance time itself is reported as the maint-ms metric.
func BenchmarkViewMaintenance(b *testing.B) {
	cfg := benchConfig()
	for _, mode := range []bench.Mode{bench.NoCSE, bench.WithCSE} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var maintNs float64
			for i := 0; i < b.N; i++ {
				m, err := bench.RunViewMaintenance(cfg, mode, 200)
				if err != nil {
					b.Fatal(err)
				}
				maintNs += float64(m.ExecTime.Nanoseconds())
			}
			b.ReportMetric(maintNs/float64(b.N)/1e6, "maint-ms/op")
		})
	}
}

// BenchmarkSignatureOverhead quantifies the §6 claim that collecting table
// signatures on queries with no sharing opportunities has unmeasurable
// overhead: it times optimization of an unrelated-query batch with the CSE
// machinery off and on.
func BenchmarkSignatureOverhead(b *testing.B) {
	cfg := benchConfig()
	sql := bench.NoSharingSQL()
	for _, mode := range []bench.Mode{bench.NoCSE, bench.WithCSE} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			db, err := bench.NewDB(cfg, mode)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.Optimize(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// optimizeOnly times just the optimization phase of a batch under given
// settings (used by the ablation benchmarks).
func optimizeOnly(b *testing.B, tweak func(*core.Settings), sql string) {
	cfg := benchConfig()
	s := core.DefaultSettings()
	tweak(&s)
	db := csedb.Open(csedb.Options{CSE: &s})
	if err := db.LoadTPCH(cfg.ScaleFactor, cfg.Seed); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Optimize(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLCA compares charging CSE initial costs at the
// consumers' common dominator (the paper's LCA, §5.2) against charging at
// the batch root. Plan quality is identical; the dominator variant prunes
// single-consumer plans earlier.
func BenchmarkAblationLCA(b *testing.B) {
	sql := bench.Table2SQL()
	b.Run("charge-at-dominator", func(b *testing.B) {
		optimizeOnly(b, func(s *core.Settings) {}, sql)
	})
	b.Run("charge-at-root", func(b *testing.B) {
		optimizeOnly(b, func(s *core.Settings) { s.ChargeAtRoot = true }, sql)
	})
}

// BenchmarkAblationHistoryReuse measures §5.4's optimization-history reuse
// on the no-heuristics Table 1 run (dozens of reoptimizations share
// per-group alternatives when reuse is on).
func BenchmarkAblationHistoryReuse(b *testing.B) {
	sql := bench.Table1SQL()
	b.Run("history-reuse", func(b *testing.B) {
		optimizeOnly(b, func(s *core.Settings) { s.Heuristics = false }, sql)
	})
	b.Run("no-history-reuse", func(b *testing.B) {
		optimizeOnly(b, func(s *core.Settings) {
			s.Heuristics = false
			s.NoHistoryReuse = true
		}, sql)
	})
}

// BenchmarkAblationSubsetPruning compares the §5.3 subset-enumeration
// strategies: exhaustive (2^N−1), Propositions 5.4–5.6, and the interval
// strengthening of Proposition 5.6.
func BenchmarkAblationSubsetPruning(b *testing.B) {
	sql := bench.Table1SQL()
	b.Run("exhaustive", func(b *testing.B) {
		optimizeOnly(b, func(s *core.Settings) {
			s.Heuristics = false
			s.SubsetPruning = false
		}, sql)
	})
	b.Run("propositions", func(b *testing.B) {
		optimizeOnly(b, func(s *core.Settings) { s.Heuristics = false }, sql)
	})
	b.Run("interval-rule", func(b *testing.B) {
		optimizeOnly(b, func(s *core.Settings) {
			s.Heuristics = false
			s.ExtendedSubsetPruning = true
		}, sql)
	})
}

// searchLargeSQL is the first 48-query skeleton batch of the benchmark's
// search.large workload (31 candidates, greedy under the auto strategy).
func searchLargeSQL() string {
	return qgen.New(qgen.Config{Seed: 2 * 7919, MinQueries: 48, MaxQueries: 48, NoCTE: true}).Batch().SQL()
}

// BenchmarkGreedyMove times one optimizer call of the greedy subset search
// on a prepared 48-query batch: from the set the search converged to, add
// the lowest-numbered unused candidate, or drop the lowest-numbered used
// one. Before every timed call the optimizer's history is reset to what the
// search holds at that point of a round — exactly one optimization, of the
// current set — so ns/op and allocs/op are those of one move.
//
//	go test -run '^$' -bench BenchmarkGreedyMove -benchtime 20x -benchmem .
func BenchmarkGreedyMove(b *testing.B) {
	db := csedb.Open(csedb.Options{})
	if err := db.LoadTPCH(0.01, 42); err != nil {
		b.Fatal(err)
	}
	out, _, err := db.Optimize(searchLargeSQL())
	if err != nil {
		b.Fatal(err)
	}
	cur := out.Stats.UsedCSEs
	inCur := make(map[int]bool, len(cur))
	for _, id := range cur {
		inCur[id] = true
	}
	add := append([]int(nil), cur...)
	for _, c := range out.Candidates {
		if !inCur[c.ID] {
			add = append(add, c.ID)
			break
		}
	}
	if len(cur) < 2 || len(add) == len(cur) {
		b.Fatalf("batch converged to %v of %d candidates: no add and drop move to time", cur, len(out.Candidates))
	}
	o := out.Optimizer
	for _, mv := range []struct {
		name    string
		enabled []int
	}{{"add", add}, {"drop", cur[1:]}} {
		b.Run(mv.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o.ReleaseCaches()
				if _, _, err := o.OptimizeWithCSEs(cur); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := o.OptimizeWithCSEs(mv.enabled); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
