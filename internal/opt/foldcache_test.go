package opt_test

import (
	"math"
	"reflect"
	"testing"

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

// TestFoldHistoryDropped: an optimizer whose fold history is bounded to
// nothing drops it before every call — the path a history that outgrew its
// bound takes — and must still answer every enabled set of a greedy search
// exactly as the search's own optimizer did, which kept its history: same
// cost to the bit, same used set. Only the work differs: every statement
// refolded on every call, against fewer with the history.
func TestFoldHistoryDropped(t *testing.T) {
	cat := catalog.New()
	for _, tab := range tpch.Schemas() {
		if err := cat.Add(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 42}, cat, storage.NewStore()); err != nil {
		t.Fatal(err)
	}
	const statements = 24
	sql := qgen.New(qgen.Config{Seed: 2 * 7919, MinQueries: statements, MaxQueries: statements, NoCTE: true}).Batch().SQL()
	stmts, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := logical.BuildBatch(stmts, cat)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memo.Build(batch)
	if err != nil {
		t.Fatal(err)
	}
	settings := core.DefaultSettings()
	settings.SearchStrategy = core.SearchGreedy
	tr := obs.NewTrace()
	out, err := core.OptimizeObserved(m, settings, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	evals := tr.OfKind(obs.EvSubsetOpt)
	if len(evals) < 10 {
		t.Fatalf("search made %d optimizer calls; want a search long enough to reuse history", len(evals))
	}

	o := opt.NewOptimizer(m)
	o.SetFoldCacheBound(0)
	o.PrepareCSE(out.Candidates)
	for i, ev := range evals {
		res, used, err := o.OptimizeWithCSEs(ev.Enabled)
		if err != nil {
			t.Fatalf("call %d enabled %v: %v", i, ev.Enabled, err)
		}
		if want := ev.Values["cost"]; math.Float64bits(res.Cost) != math.Float64bits(want) {
			t.Errorf("call %d enabled %v: cost %v with the history, %v without", i, ev.Enabled, want, res.Cost)
		}
		if !(len(used) == 0 && len(ev.Used) == 0) && !reflect.DeepEqual(used, ev.Used) {
			t.Errorf("call %d enabled %v: used %v with the history, %v without", i, ev.Enabled, ev.Used, used)
		}
	}
	if got, want := o.Work.RootChildrenRefolded, len(evals)*statements; got != want {
		t.Errorf("without a history %d root children refolded over %d calls, want all %d", got, len(evals), want)
	}
	if kept := out.Stats.Work.RootChildrenRefolded; kept >= o.Work.RootChildrenRefolded {
		t.Errorf("the search refolded %d root children with its history, %d without", kept, o.Work.RootChildrenRefolded)
	}
}
