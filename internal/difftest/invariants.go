package difftest

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/opt"
)

// checkOptimizerInvariants asserts structural properties of an optimization
// that must hold for any input:
//
//  1. The chosen plan's estimated cost never exceeds the no-CSE plan's
//     (the optimizer only accepts a CSE set that is a strict improvement).
//  2. Every consumer's table signature is a subset of its covering
//     candidate's signature — a CSE that does not contain a consumer's
//     tables cannot possibly cover it (§3 of the paper).
//  3. Candidates pruned by Heuristic 4 never appear as spools in the final
//     plan.
func checkOptimizerInvariants(m *memo.Memo, out *core.Output, tr *obs.Trace) error {
	const eps = 1e-6
	if out.Stats.FinalCost > out.Stats.BaseCost*(1+eps) {
		return fmt.Errorf("final cost %.3f exceeds no-CSE base cost %.3f",
			out.Stats.FinalCost, out.Stats.BaseCost)
	}

	for _, cand := range out.Candidates {
		super := make(map[string]bool, len(cand.Tables))
		for _, t := range cand.Tables {
			super[t] = true
		}
		for _, gid := range cand.Consumers {
			sig := m.Group(gid).Sig
			if !sig.Valid {
				return fmt.Errorf("candidate %q covers consumer G%d with no valid signature", cand.Label, gid)
			}
			for _, t := range sig.Tables {
				if !super[t] {
					return fmt.Errorf("candidate %q (tables %v) covers consumer G%d whose signature includes %q",
						cand.Label, cand.Tables, gid, t)
				}
			}
			if cand.Grouped && !sig.Grouped {
				// A grouped consumer can be computed from an ungrouped spool
				// (re-aggregation), but an already-aggregated spool cannot
				// reproduce a consumer's raw rows.
				return fmt.Errorf("grouped candidate %q covers ungrouped consumer G%d", cand.Label, gid)
			}
		}
	}

	if tr != nil {
		// Identify a pruned candidate by label AND consumer set: the label
		// alone describes the expression shape, and a distinct candidate over
		// the same shape (different consumers) may legitimately survive.
		pruned := map[string]bool{}
		for _, e := range tr.OfKind(obs.EvH4) {
			if e.Pruned {
				pruned[e.Label+groupsKey(e.Groups)] = true
			}
		}
		if out.Result != nil && len(pruned) > 0 {
			consumersOf := make(map[int][]memo.GroupID, len(out.Candidates))
			for _, c := range out.Candidates {
				consumersOf[c.ID] = c.Consumers
			}
			for id, cp := range out.Result.CSEs {
				gids := make([]int, 0, len(consumersOf[cp.ID]))
				for _, g := range consumersOf[cp.ID] {
					gids = append(gids, int(g))
				}
				if pruned[cp.Label+groupsKey(gids)] {
					return fmt.Errorf("H4-pruned candidate %q appears in the final plan as spool %d", cp.Label, id)
				}
			}
		}
	}
	return nil
}

// groupsKey renders a consumer-group set order-independently.
func groupsKey(gids []int) string {
	s := append([]int(nil), gids...)
	sort.Ints(s)
	return fmt.Sprintf("|%v", s)
}

// checkExecInvariants asserts executor accounting properties: every spool in
// the plan was materialized at most once (the scheduler's exactly-once
// guarantee), and every *demanded* spool was either run or served from the
// result cache. A spool is demanded by the statements that scan it and by
// stacked spools that actually ran — a spool whose only consumers were all
// served from the cache is legitimately never touched (its runs and cache
// flags both stay zero), so demand is computed from the plans that ran
// rather than assumed universal.
func checkExecInvariants(res *opt.Result, stats *exec.Stats) error {
	if res == nil || stats == nil {
		return nil
	}
	demanded := make(map[int]bool, len(res.CSEs))
	for _, sp := range res.StatementPlans() {
		sp.UsedSpoolIDs(demanded)
	}
	for id, cse := range res.CSEs {
		if stats.SpoolRuns[id] > 0 {
			cse.Plan.UsedSpoolIDs(demanded)
		}
	}

	for id := range res.CSEs {
		runs := stats.SpoolRuns[id]
		if runs > 1 {
			return fmt.Errorf("spool %d materialized %d times (want at most 1)", id, runs)
		}
		if !demanded[id] {
			if runs > 0 {
				return fmt.Errorf("spool %d materialized despite having no live consumer", id)
			}
			continue
		}
		if runs == 0 && !stats.SpoolCached[id] {
			return fmt.Errorf("spool %d neither materialized nor served from cache", id)
		}
		if _, ok := stats.SpoolRows[id]; !ok {
			return fmt.Errorf("spool %d has no row accounting", id)
		}
	}
	return nil
}
