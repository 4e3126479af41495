package core_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/qgen"
	"repro/internal/storage"
	"repro/internal/tpch"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plan_identity.golden from the current optimizer")

// identityBatch is one batch whose optimization outcome is pinned.
type identityBatch struct {
	name string
	sql  string
}

// identityBatches is the pinned pool: the paper's Tables 1–4, the five
// 48-query skeleton batches of the benchmark's search.large workload (all
// greedy under the auto strategy), and 50 smaller generated batches (lattice
// and greedy mixed).
func identityBatches() []identityBatch {
	out := []identityBatch{
		{"table1", bench.Table1SQL()},
		{"table2", bench.Table2SQL()},
		{"table3", bench.Table3SQL()},
		{"table4", bench.Table4SQL()},
	}
	for _, sk := range []int64{2, 4, 9, 11, 17} {
		b := qgen.New(qgen.Config{Seed: sk * 7919, MinQueries: 48, MaxQueries: 48, NoCTE: true}).Batch()
		out = append(out, identityBatch{fmt.Sprintf("search.large-%d", sk), b.SQL()})
	}
	for seed := int64(1); seed <= 50; seed++ {
		b := qgen.New(qgen.Config{Seed: seed, MinQueries: 4, MaxQueries: 16}).Batch()
		out = append(out, identityBatch{fmt.Sprintf("qgen-%d", seed), b.SQL()})
	}
	return out
}

// identityRun is one pinned batch optimized under the default settings with
// the search traced (tracing records decisions; it does not change them).
type identityRun struct {
	name  string
	memo  *memo.Memo
	out   *core.Output
	evals []obs.Event // one EvSubsetOpt per reoptimization, in search order
}

// identityRuns optimizes the pinned pool once for both tests below.
var identityRuns = sync.OnceValues(func() ([]identityRun, error) {
	cat := catalog.New()
	for _, tab := range tpch.Schemas() {
		if err := cat.Add(tab); err != nil {
			return nil, err
		}
	}
	if err := tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 42}, cat, storage.NewStore()); err != nil {
		return nil, err
	}
	var runs []identityRun
	for _, b := range identityBatches() {
		stmts, err := parser.Parse(b.sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		batch, err := logical.BuildBatch(stmts, cat)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		m, err := memo.Build(batch)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		tr := obs.NewTrace()
		out, err := core.OptimizeObserved(m, core.DefaultSettings(), tr, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		runs = append(runs, identityRun{b.name, m, out, tr.OfKind(obs.EvSubsetOpt)})
	}
	return runs, nil
})

// TestPlanIdentityGolden pins what the CSE phase decides, batch by batch:
// how many candidates it generated, how many reoptimizations the search
// spent, which strategy ran, which candidates the final plan uses and the
// final cost to the bit. A change to the reoptimizer that is meant to do the
// same work faster must pass this without editing the golden file.
func TestPlanIdentityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes 59 batches; run without -short")
	}
	runs, err := identityRuns()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range runs {
		st := r.out.Stats
		fmt.Fprintf(&sb, "%s candidates=%d opts=%d strategy=%q used=%v cost=%016x (%.4f)\n",
			r.name, st.Candidates, st.CSEOptimizations, st.SearchStrategy, st.UsedCSEs,
			math.Float64bits(st.FinalCost), st.FinalCost)
	}
	path := filepath.Join("testdata", "plan_identity.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(sb.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, this run %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// TestIncrementalMatchesFromScratch replays every enabled set the subset
// search evaluated (taken from its trace) on an optimizer with history reuse
// switched off, which answers each call from empty caches. The search's own
// optimizer answered each set warm, having seen the whole preceding move
// history; the two must agree on the cost to the bit and on the used set.
// The work counters must tell the two apart: from scratch every statement is
// folded into the batch root on every call, warm fewer.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 7,442 reoptimizations from scratch; run without -short")
	}
	runs, err := identityRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if len(r.evals) != r.out.Stats.CSEOptimizations {
			t.Fatalf("%s: %d subset-opt events for %d reoptimizations", r.name, len(r.evals), r.out.Stats.CSEOptimizations)
		}
		if len(r.evals) == 0 {
			continue
		}
		scratch := opt.NewOptimizer(r.memo)
		scratch.NoHistoryReuse = true
		scratch.PrepareCSE(r.out.Candidates)
		for i, ev := range r.evals {
			res, used, err := scratch.OptimizeWithCSEs(ev.Enabled)
			if err != nil {
				t.Fatalf("%s call %d enabled %v: %v", r.name, i, ev.Enabled, err)
			}
			if warm := ev.Values["cost"]; math.Float64bits(res.Cost) != math.Float64bits(warm) {
				t.Errorf("%s call %d enabled %v: warm cost %v, from scratch %v", r.name, i, ev.Enabled, warm, res.Cost)
			}
			if !(len(used) == 0 && len(ev.Used) == 0) && !reflect.DeepEqual(used, ev.Used) {
				t.Errorf("%s call %d enabled %v: warm used %v, from scratch %v", r.name, i, ev.Enabled, ev.Used, used)
			}
		}
		statements := len(r.memo.Group(r.memo.RootGroup).Exprs[0].Children)
		calls := len(r.evals)
		if got := scratch.Work.RootChildrenRefolded; got != calls*statements {
			t.Errorf("%s: from scratch refolded %d root children over %d calls of %d statements", r.name, got, calls, statements)
		}
		warm := r.out.Stats.Work
		// A small batch whose candidates all touch the first statement has no
		// prefix to reuse; the 48-statement batches must.
		if limit := calls * statements; warm.RootChildrenRefolded > limit || statements >= 48 && warm.RootChildrenRefolded >= limit {
			t.Errorf("%s: warm search refolded %d root children over %d calls of %d statements",
				r.name, warm.RootChildrenRefolded, calls, statements)
		}
		if warm.GroupsRecosted > scratch.Work.GroupsRecosted {
			t.Errorf("%s: warm search recosted %d groups, from scratch %d", r.name, warm.GroupsRecosted, scratch.Work.GroupsRecosted)
		}
	}
}
