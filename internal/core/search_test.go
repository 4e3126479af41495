package core_test

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// searchStats runs Example 1's batch under one strategy/budget configuration
// with heuristics and subset pruning off (maximizing the search's work) and
// returns the output.
func searchStats(t *testing.T, strategy core.SearchStrategy, budget int, tweak func(*core.Settings)) *core.Output {
	t.Helper()
	cat := testCatalog(t, 0.01)
	m := buildMemo(t, cat, example1SQL)
	s := core.DefaultSettings()
	s.SearchStrategy = strategy
	if budget > 0 {
		s.MaxCSEOptimizations = budget
	}
	if tweak != nil {
		tweak(&s)
	}
	out, err := core.Optimize(m, s)
	if err != nil {
		t.Fatalf("strategy %s budget %d: %v", strategy, budget, err)
	}
	return out
}

// TestSearchBudgetRespected: with MaxCSEOptimizations of 1 and 2 — tight
// enough that every strategy must stop mid-search — the optimizer-call count
// never exceeds the budget and a valid plan is always returned (the bug
// class the PR 5 pruneCombos fix addressed).
func TestSearchBudgetRespected(t *testing.T) {
	for _, strategy := range []core.SearchStrategy{core.SearchAuto, core.SearchLattice, core.SearchGreedy} {
		for _, budget := range []int{1, 2} {
			out := searchStats(t, strategy, budget, func(s *core.Settings) {
				s.Heuristics = false
				s.SubsetPruning = false
			})
			if out.Result == nil {
				t.Fatalf("strategy %s budget %d: no plan returned", strategy, budget)
			}
			if out.Stats.CSEOptimizations > budget {
				t.Errorf("strategy %s: %d optimizer calls exceed budget %d",
					strategy, out.Stats.CSEOptimizations, budget)
			}
			if out.Stats.FinalCost > out.Stats.BaseCost {
				t.Errorf("strategy %s budget %d: final cost %.2f above baseline %.2f",
					strategy, budget, out.Stats.FinalCost, out.Stats.BaseCost)
			}
			if out.Stats.FinalCost <= 0 {
				t.Errorf("strategy %s budget %d: implausible final cost %.2f",
					strategy, budget, out.Stats.FinalCost)
			}
		}
	}
}

// TestGreedyVsLattice: the exhaustive lattice is optimal over the candidate
// subsets, so the greedy search can never beat it; both must stay at or
// below the no-CSE baseline, and the stats must record the resolved
// strategy.
func TestGreedyVsLattice(t *testing.T) {
	lattice := searchStats(t, core.SearchLattice, 0, nil)
	greedy := searchStats(t, core.SearchGreedy, 0, nil)
	if lattice.Stats.SearchStrategy != "lattice" {
		t.Errorf("lattice run recorded strategy %q", lattice.Stats.SearchStrategy)
	}
	if greedy.Stats.SearchStrategy != "greedy" {
		t.Errorf("greedy run recorded strategy %q", greedy.Stats.SearchStrategy)
	}
	const eps = 1e-6
	if greedy.Stats.FinalCost < lattice.Stats.FinalCost*(1-eps) {
		t.Errorf("greedy cost %.4f beats the exhaustive lattice %.4f — lattice is not optimal?",
			greedy.Stats.FinalCost, lattice.Stats.FinalCost)
	}
	for _, out := range []*core.Output{lattice, greedy} {
		if out.Stats.FinalCost > out.Stats.BaseCost*(1+eps) {
			t.Errorf("strategy %s: final cost %.4f above baseline %.4f",
				out.Stats.SearchStrategy, out.Stats.FinalCost, out.Stats.BaseCost)
		}
	}
	// On Example 1's small candidate set greedy finds the same optimum.
	if greedy.Stats.FinalCost > lattice.Stats.FinalCost*(1+eps) {
		t.Logf("note: greedy cost %.4f > lattice optimum %.4f on Example 1",
			greedy.Stats.FinalCost, lattice.Stats.FinalCost)
	}
}

// TestAutoResolvesToLatticeOnSmallSets: Example 1's candidate count is far
// below the lattice bound, so auto must pick the lattice and match it
// exactly.
func TestAutoResolvesToLatticeOnSmallSets(t *testing.T) {
	auto := searchStats(t, core.SearchAuto, 0, nil)
	lattice := searchStats(t, core.SearchLattice, 0, nil)
	if auto.Stats.SearchStrategy != "lattice" {
		t.Errorf("auto resolved to %q on %d candidates, want lattice",
			auto.Stats.SearchStrategy, auto.Stats.Candidates)
	}
	if auto.Stats.FinalCost != lattice.Stats.FinalCost || auto.Stats.CSEOptimizations != lattice.Stats.CSEOptimizations {
		t.Errorf("auto (cost %.4f, %d opts) differs from forced lattice (cost %.4f, %d opts)",
			auto.Stats.FinalCost, auto.Stats.CSEOptimizations,
			lattice.Stats.FinalCost, lattice.Stats.CSEOptimizations)
	}
}

// TestGreedyTraceOrdering pins the greedy search's trace shape — and, as the
// regression for the old keyOf in-place sort, that every Enabled/Used slice
// recorded in trace events is its own sorted copy, never reordered after the
// fact by later key computations.
func TestGreedyTraceOrdering(t *testing.T) {
	cat := testCatalog(t, 0.01)
	m := buildMemo(t, cat, example1SQL)
	s := core.DefaultSettings()
	s.SearchStrategy = core.SearchGreedy
	s.Heuristics = false
	tr := obs.NewTrace()
	out, err := core.OptimizeObserved(m, s, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	subsetEvents := tr.OfKind(obs.EvSubsetOpt)
	if len(subsetEvents) != out.Stats.CSEOptimizations {
		t.Fatalf("subset-opt events = %d, Stats.CSEOptimizations = %d",
			len(subsetEvents), out.Stats.CSEOptimizations)
	}
	if len(subsetEvents) == 0 {
		t.Fatal("greedy run recorded no subset-opt events")
	}
	// The seed is the all-enabled optimization: candidate IDs 0..n-1 in
	// ascending order.
	first := subsetEvents[0]
	if len(first.Enabled) != out.Stats.Candidates {
		t.Errorf("seed enabled %v, want all %d candidates", first.Enabled, out.Stats.Candidates)
	}
	for _, ev := range subsetEvents {
		if !sort.IntsAreSorted(ev.Enabled) {
			t.Errorf("subset-opt Enabled %v not sorted ascending", ev.Enabled)
		}
		if !sort.IntsAreSorted(ev.Used) {
			t.Errorf("subset-opt Used %v not sorted ascending", ev.Used)
		}
	}
	moves := tr.OfKind(obs.EvGreedyMove)
	if len(moves) == 0 {
		t.Fatal("greedy run recorded no greedy-move events")
	}
	if moves[0].Values["round"] != 0 {
		t.Errorf("first greedy-move is not the round-0 seed: %+v", moves[0])
	}
	lastCost := moves[0].Values["cost"]
	for i, mv := range moves[1:] {
		if !sort.IntsAreSorted(mv.Enabled) {
			t.Errorf("greedy-move Enabled %v not sorted ascending", mv.Enabled)
		}
		if mv.Values["cost"] >= lastCost {
			t.Errorf("committed move %d did not improve cost: %.4f -> %.4f",
				i+1, lastCost, mv.Values["cost"])
		}
		lastCost = mv.Values["cost"]
	}
	if lastCost != out.Stats.FinalCost && out.Stats.FinalCost < out.Stats.BaseCost {
		// The last committed state is the best found; when the search beat
		// the baseline the stats must agree with the trace.
		t.Errorf("last greedy-move cost %.4f, Stats.FinalCost %.4f", lastCost, out.Stats.FinalCost)
	}
}
