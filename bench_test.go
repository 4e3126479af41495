package repro_test

// Benchmarks of what cmd/csebench does not run: the optimizer-effort
// ablations of DESIGN.md and one greedy move of the subset search.
//
//	go test -run '^$' -bench 'BenchmarkAblation|BenchmarkGreedyMove' -benchmem .
//
// The ablations default to scale factor 0.05; set the CSEDB_SF environment
// variable to change it. The paper's tables and figures are regenerated by
// cmd/csebench, and end-to-end speed is measured by the benchmark program.

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
