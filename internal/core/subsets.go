package core

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/opt"
)

// subsetRule encodes Proposition 5.5: after optimizing with S = R ∪ T where
// every member of T is independent of all other members of S, any subset
// that keeps R and drops part of T is redundant.
type subsetRule struct {
	r, t uint64
}

func (ru subsetRule) skips(mask uint64) bool {
	full := ru.r | ru.t
	return mask&^full == 0 && mask&ru.r == ru.r && mask != full && mask != 0
}

// maxLatticeCandidates bounds full subset-lattice enumeration under the auto
// strategy; larger candidate sets use the greedy search.
const maxLatticeCandidates = 16

// maxMaskCandidates is the hard candidate-universe bound of the mask-based
// search bookkeeping (uint64 bitmasks, with the full lattice mask needing one
// spare bit). A forced lattice beyond it falls back to greedy; greedy itself
// restricts the move universe to the first maxMaskCandidates candidates.
const maxMaskCandidates = 63

// subsetOpts configures the §5.3 cost-based selection search.
type subsetOpts struct {
	pruning  bool // Propositions 5.4–5.6
	extended bool // interval strengthening of Proposition 5.6
	maxOpts  int
	strategy SearchStrategy // resolved: SearchLattice or SearchGreedy
	baseCost float64        // cost of the no-CSE plan (the empty set's known cost)
	trace    *obs.Trace     // nil when tracing is off
	span     *obs.Span      // nil when span tracing is off
}

// intervalRule skips every set strictly between lo and hi (inclusive of lo,
// exclusive of hi): the optimizer already proved the plan using lo optimal
// for all of them.
type intervalRule struct {
	lo, hi uint64
}

func (ru intervalRule) skips(mask uint64) bool {
	return mask&^ru.hi == 0 && mask&ru.lo == ru.lo && mask != ru.hi && mask != 0
}

// pruner accumulates the Proposition 5.4–5.6 redundancy rules observed
// during a search. Both search strategies share it: every evaluated
// (enabled → used) pair teaches it which not-yet-tried subsets are already
// proven redundant.
type pruner struct {
	rules     []subsetRule
	intervals []intervalRule
	skipExact map[uint64]bool

	independentPart func(mask uint64) uint64
	extended        bool
}

func newPruner(m *memo.Memo, cands []*opt.Candidate, extended bool) *pruner {
	n := len(cands)
	// Competing/independent classification (Definition 5.2) via the memo
	// DAG ancestry of charge groups (the generalized LCAs).
	closure := make([]map[memo.GroupID]bool, n)
	for i, c := range cands {
		closure[i] = m.DescendantClosure(c.ChargeGroup)
	}
	competing := func(i, j int) bool {
		return closure[i][cands[j].ChargeGroup] || closure[j][cands[i].ChargeGroup]
	}
	return &pruner{
		skipExact: make(map[uint64]bool),
		extended:  extended,
		independentPart: func(mask uint64) uint64 {
			var t uint64
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) == 0 {
					continue
				}
				indep := true
				for j := 0; j < n; j++ {
					if i == j || mask&(1<<uint(j)) == 0 {
						continue
					}
					if competing(i, j) {
						indep = false
						break
					}
				}
				if indep {
					t |= 1 << uint(i)
				}
			}
			return t
		},
	}
}

// skips reports whether the set is already proven redundant: its optimal
// plan equals that of an already-optimized superset.
func (p *pruner) skips(mask uint64) bool {
	if p.skipExact[mask] {
		return true
	}
	for _, ru := range p.rules {
		if ru.skips(mask) {
			return true
		}
	}
	for _, ru := range p.intervals {
		if ru.skips(mask) {
			return true
		}
	}
	return false
}

// observe records the redundancy rules implied by one optimization: the
// Proposition 5.5 rule of the enabled set, and — when the winner used a
// strict subset — Proposition 5.6's exact-set rule (plus the interval
// strengthening when enabled).
func (p *pruner) observe(mask, usedMask uint64) {
	p.addRule(mask)
	if usedMask != 0 && usedMask != mask {
		p.skipExact[usedMask] = true
		p.addRule(usedMask)
	}
	if p.extended {
		p.intervals = append(p.intervals, intervalRule{lo: usedMask, hi: mask})
	}
}

func (p *pruner) addRule(mask uint64) {
	t := p.independentPart(mask)
	p.rules = append(p.rules, subsetRule{r: mask &^ t, t: t})
}

// optimizeSubsets runs the §5.3 cost-based selection over candidate subsets
// with the resolved strategy: the exhaustive (pruned) lattice, or the greedy
// local search for large candidate sets. It returns the best result found,
// the candidate set it uses, and the number of optimizations performed.
func optimizeSubsets(o *opt.Optimizer, m *memo.Memo, cands []*opt.Candidate, opts subsetOpts) (*opt.Result, []int, int, error) {
	if opts.strategy == SearchGreedy || len(cands) > maxMaskCandidates {
		return optimizeSubsetsGreedy(o, m, cands, opts)
	}
	return optimizeSubsetsLattice(o, m, cands, opts)
}

// optimizeSubsetsLattice runs the paper's §5.3 procedure: enumerate candidate
// subsets in descending size order, optimizing with each set enabled,
// applying Propositions 5.4–5.6 (and optionally the interval strengthening)
// to skip redundant combinations. Masks are generated lazily (Gosper's hack
// within each popcount band), so a large candidate universe under a small
// optimization budget never materializes the 2^N−1 mask list.
func optimizeSubsetsLattice(o *opt.Optimizer, m *memo.Memo, cands []*opt.Candidate, opts subsetOpts) (*opt.Result, []int, int, error) {
	n := len(cands)
	idOf := make([]int, n)
	for i, c := range cands {
		idOf[i] = c.ID
	}
	pr := newPruner(m, cands, opts.extended)

	var best *opt.Result
	var bestUsed []int
	nOpts := 0
	full := uint64(1)<<uint(n) - 1
enumeration:
	for k := n; k >= 1; k-- {
		mask := uint64(1)<<uint(k) - 1
		for ok := true; ok; mask, ok = gosperNext(mask, full) {
			if nOpts >= opts.maxOpts {
				break enumeration // elapsed-effort gate (§2.1 phase bounding)
			}
			if opts.pruning && pr.skips(mask) {
				continue
			}
			enabled := make([]int, 0, bits.OnesCount64(mask))
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					enabled = append(enabled, idOf[i])
				}
			}
			res, usedIDs, err := o.OptimizeWithCSEs(enabled)
			if err != nil {
				return nil, nil, nOpts, err
			}
			nOpts++
			if opts.trace != nil {
				opts.trace.Add(obs.Event{
					Kind:    obs.EvSubsetOpt,
					Enabled: append([]int(nil), enabled...),
					Used:    append([]int(nil), usedIDs...),
					Values:  map[string]float64{"cost": res.Cost},
				})
			}
			if best == nil || res.Cost < best.Cost {
				best = res
				bestUsed = usedIDs
			}
			if !opts.pruning {
				continue
			}
			// Proposition 5.6: the returned plan is also optimal for the set
			// it actually used; treat that set as optimized too.
			var usedMask uint64
			for _, id := range usedIDs {
				for i, cid := range idOf {
					if cid == id {
						usedMask |= 1 << uint(i)
					}
				}
			}
			pr.observe(mask, usedMask)
		}
	}
	return best, bestUsed, nOpts, nil
}

// gosperNext returns the numerically-next mask with the same popcount
// (Gosper's hack), or ok=false once past the full-universe mask. Callers
// guarantee full < 1<<63, so the intermediate sum never overflows.
func gosperNext(mask, full uint64) (uint64, bool) {
	c := mask & -mask
	r := mask + c
	next := ((r ^ mask) >> 2 / c) | r
	if next > full {
		return 0, false
	}
	return next, true
}

// greedyEval is one memoized reoptimization of the greedy search.
type greedyEval struct {
	res      *opt.Result
	used     []int
	usedMask uint64
	cost     float64
}

// optimizeSubsetsGreedy searches the candidate lattice by greedy local moves
// instead of enumeration, in the spirit of Roy et al.'s Volcano-RU/greedy
// heuristics and Kathuria & Sudarshan's approximate greedy: seed with one
// all-enabled optimization, snap to the set the winner actually used
// (Proposition 5.6), then repeatedly evaluate every single-candidate
// add/drop move and commit the one with the best marginal cost delta, until
// no move improves the cost or the optimization budget is spent. Every
// reoptimization reuses §5.4 optimization history inside the optimizer, and
// the Proposition 5.4–5.6 rules learned from evaluated sets skip moves whose
// outcome is already proven, so each round costs at most O(N) optimizer
// calls and the whole search O(N·k) for k committed moves.
func optimizeSubsetsGreedy(o *opt.Optimizer, m *memo.Memo, cands []*opt.Candidate, opts subsetOpts) (*opt.Result, []int, int, error) {
	if len(cands) > maxMaskCandidates {
		// The move bookkeeping uses uint64 masks; restrict the move universe
		// to the first 63 candidates (a capped generator orders them by
		// potential, so the tail is the least promising).
		if opts.trace != nil {
			opts.trace.Add(obs.Event{
				Kind:   obs.EvGreedyMove,
				Reason: fmt.Sprintf("candidate universe truncated from %d to %d for mask bookkeeping", len(cands), maxMaskCandidates),
			})
		}
		cands = cands[:maxMaskCandidates]
	}
	n := len(cands)
	idOf := make([]int, n)
	indexOf := make(map[int]int, n)
	for i, c := range cands {
		idOf[i] = c.ID
		indexOf[c.ID] = i
	}
	idsOf := func(mask uint64) []int {
		out := make([]int, 0, bits.OnesCount64(mask))
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				out = append(out, idOf[i])
			}
		}
		sort.Ints(out)
		return out
	}

	var pr *pruner
	if opts.pruning {
		pr = newPruner(m, cands, opts.extended)
	}

	var best *opt.Result
	var bestUsed []int
	nOpts := 0
	evals := make(map[uint64]*greedyEval)

	// evaluate optimizes with the given set enabled, memoizing by mask and
	// (via Proposition 5.6) by the used set. A nil eval with nil error means
	// the optimization budget is exhausted.
	evaluate := func(mask uint64) (*greedyEval, error) {
		if e, ok := evals[mask]; ok {
			return e, nil
		}
		if nOpts >= opts.maxOpts {
			return nil, nil
		}
		enabled := idsOf(mask)
		res, usedIDs, err := o.OptimizeWithCSEs(enabled)
		if err != nil {
			return nil, err
		}
		nOpts++
		if opts.trace != nil {
			opts.trace.Add(obs.Event{
				Kind:    obs.EvSubsetOpt,
				Enabled: append([]int(nil), enabled...),
				Used:    append([]int(nil), usedIDs...),
				Values:  map[string]float64{"cost": res.Cost},
			})
		}
		var usedMask uint64
		for _, id := range usedIDs {
			if i, ok := indexOf[id]; ok {
				usedMask |= 1 << uint(i)
			}
		}
		e := &greedyEval{res: res, used: usedIDs, usedMask: usedMask, cost: res.Cost}
		evals[mask] = e
		evals[usedMask] = e // Prop 5.6: the winner is optimal for its used set
		if pr != nil {
			pr.observe(mask, usedMask)
		}
		if best == nil || res.Cost < best.Cost {
			best = res
			bestUsed = usedIDs
		}
		return e, nil
	}

	// Seed: one optimization with everything enabled (Volcano-RU style), then
	// start the local search from the set the winner actually used.
	full := uint64(1)<<uint(n) - 1
	seed, err := evaluate(full)
	if err != nil || seed == nil {
		return best, bestUsed, nOpts, err
	}
	cur, curCost := seed.usedMask, seed.cost
	if opts.trace != nil {
		opts.trace.Add(obs.Event{
			Kind:    obs.EvGreedyMove,
			Enabled: idsOf(cur),
			Used:    append([]int(nil), seed.used...),
			Reason:  "seed: all-enabled optimization, snapped to the used set",
			Values:  map[string]float64{"cost": curCost, "round": 0},
		})
	}

	for round := 1; nOpts < opts.maxOpts; round++ {
		roundSpan := opts.span.Child("greedy-round")
		roundSpan.SetAttr("round", round)
		workBefore := o.Work
		var bestMove *greedyEval
		bestMoveBit := -1
		bestMoveCost := curCost
		bestMoveEmpty := false
		evaluated := 0
		budgetOut := false
		for i := 0; i < n; i++ {
			mv := cur ^ (1 << uint(i))
			var mvCost float64
			var e *greedyEval
			switch {
			case mv == 0:
				// Dropping the last member lands on the empty set, whose cost
				// — the no-CSE base plan — is already known for free.
				mvCost = opts.baseCost
			case pr != nil && pr.skips(mv):
				// The move's optimal plan equals an already-evaluated
				// superset's winner, which cannot beat the current cost.
				continue
			default:
				var err error
				e, err = evaluate(mv)
				if err != nil {
					roundSpan.End()
					return nil, nil, nOpts, err
				}
				if e == nil {
					budgetOut = true
					break
				}
				mvCost = e.cost
				evaluated++
			}
			if mvCost < bestMoveCost {
				bestMove, bestMoveBit, bestMoveCost = e, i, mvCost
				bestMoveEmpty = mv == 0
			}
		}
		roundSpan.SetAttr("moves_evaluated", evaluated)
		setWorkAttrs(roundSpan, o.Work.Sub(workBefore))
		if bestMoveBit < 0 || bestMoveEmpty || bestMove == nil {
			// Converged: no move strictly improves the cost, or the best move
			// is the empty set (the caller falls back to the base plan when
			// the search never beats it).
			roundSpan.SetAttr("converged", !budgetOut)
			roundSpan.End()
			break
		}
		verb := "add"
		if cur&(1<<uint(bestMoveBit)) != 0 {
			verb = "drop"
		}
		delta := curCost - bestMoveCost
		cur, curCost = bestMove.usedMask, bestMove.cost
		roundSpan.SetAttr("move", fmt.Sprintf("%s CSE%d", verb, idOf[bestMoveBit]))
		roundSpan.SetAttr("cost", curCost)
		roundSpan.End()
		if opts.trace != nil {
			opts.trace.Add(obs.Event{
				Kind:    obs.EvGreedyMove,
				Enabled: idsOf(cur),
				Used:    append([]int(nil), bestMove.used...),
				Reason:  fmt.Sprintf("%s CSE%d", verb, idOf[bestMoveBit]),
				Values:  map[string]float64{"cost": curCost, "delta": delta, "round": float64(round)},
			})
		}
	}
	return best, bestUsed, nOpts, nil
}
