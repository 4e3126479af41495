package opt

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/scalar"
)

// Winner records the best plan found for a group plus the cost bounds the
// CSE heuristics consume: Lower is the cost of the group's optimal
// (unordered) plan; Upper is "the maximum cost among the optimal plans in
// the group" (§4.3) — the max over the group's expressions of each
// expression's best plan, further raised by winners computed under sort
// requirements (the paper's "optimized several times, each time with
// different requirements ... unsorted or sorted on a given set of columns").
type Winner struct {
	Plan  *Plan
	Lower float64
	Upper float64
}

// CSEWork counts the work done by CSE reoptimizations: a reoptimization that
// reuses history recosts only what its enabled set changed.
type CSEWork struct {
	// GroupsRecosted is the number of groups whose alternatives were
	// computed; AltCacheHits the number answered from optimization history.
	GroupsRecosted int
	AltCacheHits   int
	// RootChildrenRefolded is the number of statements folded into the batch
	// root's combinations (all of them on every call without history).
	RootChildrenRefolded int
}

// Sub returns the work done since an earlier reading.
func (w CSEWork) Sub(earlier CSEWork) CSEWork {
	return CSEWork{
		GroupsRecosted:       w.GroupsRecosted - earlier.GroupsRecosted,
		AltCacheHits:         w.AltCacheHits - earlier.AltCacheHits,
		RootChildrenRefolded: w.RootChildrenRefolded - earlier.RootChildrenRefolded,
	}
}

// Optimizer costs memo groups and runs the CSE optimization phase.
type Optimizer struct {
	M *memo.Memo

	base    map[memo.GroupID]*Winner
	ordered map[memo.GroupID]map[string]*Winner
	upper   map[memo.GroupID]float64
	altMemo map[*memo.Expr][]*Plan

	// CSE phase state (populated by PrepareCSE).
	Cands     []*Candidate
	doms      *memo.Dominators
	ord       map[int]int // candidate ID → ordinal in Cands
	affected  map[int]map[memo.GroupID]bool
	altCache  map[memo.GroupID]map[string][]*Alt
	rootFold  *foldCache
	foldBound int // maxFoldCacheBytes, lowered by tests
	// Scratch of extendCombos, reused across fold steps.
	extBuf   []extension
	seenUses map[usage]bool

	// AltCap bounds the alternatives kept per group during CSE
	// reoptimization.
	AltCap int

	// ChargeAtRoot is an ablation switch: charge every candidate's initial
	// cost at the batch root instead of the consumers' common dominator
	// (the paper's §5.2 argues charging at the LCA avoids wasted work).
	ChargeAtRoot bool

	// NoHistoryReuse is an ablation switch: disable §5.4's optimization
	// history reuse, so every reoptimization starts from empty caches and
	// recosts every group an enabled candidate affects, sharing nothing with
	// the reoptimizations before it. The plans it returns are the same; it is
	// the from-scratch oracle the incremental path is tested against.
	NoHistoryReuse bool

	// Stats counters.
	GroupsCosted int

	// Work counts what the OptimizeWithCSEs calls so far had to do.
	Work CSEWork
}

// NewOptimizer returns an optimizer over the memo.
func NewOptimizer(m *memo.Memo) *Optimizer {
	return &Optimizer{
		M:       m,
		base:    make(map[memo.GroupID]*Winner),
		ordered: make(map[memo.GroupID]map[string]*Winner),
		upper:   make(map[memo.GroupID]float64),
		altMemo: make(map[*memo.Expr][]*Plan),

		foldBound: maxFoldCacheBytes,
		AltCap:    8,
	}
}

// OptimizeBase runs normal (pre-CSE) optimization and returns the best plan.
func (o *Optimizer) OptimizeBase() (*Result, error) {
	w, err := o.winner(o.M.RootGroup)
	if err != nil {
		return nil, err
	}
	return &Result{Root: w.Plan, Cost: w.Lower, CSEs: map[int]*CSEPlan{}}, nil
}

// Winner returns (computing if needed) the base winner for a group.
func (o *Optimizer) Winner(g memo.GroupID) (*Winner, error) { return o.winner(g) }

// BaseCost returns the normal-optimization cost of the whole batch (C_Q).
func (o *Optimizer) BaseCost() (float64, error) {
	w, err := o.winner(o.M.RootGroup)
	if err != nil {
		return 0, err
	}
	return w.Lower, nil
}

func (o *Optimizer) raiseUpper(id memo.GroupID, cost float64) {
	if cost > o.upper[id] {
		o.upper[id] = cost
	}
}

// winner computes the best plan for a group with no ordering requirement.
func (o *Optimizer) winner(id memo.GroupID) (*Winner, error) {
	if w, ok := o.base[id]; ok {
		w.Upper = o.upper[id]
		return w, nil
	}
	g := o.M.Group(id)
	if len(g.Exprs) == 0 {
		return nil, fmt.Errorf("group G%d has no expressions", id)
	}
	var best *Plan
	lower := 0.0
	for _, e := range g.Exprs {
		alts, err := o.alternativesFor(e, g)
		if err != nil {
			return nil, err
		}
		exprBest := 0.0
		first := true
		for _, p := range alts {
			if best == nil || p.Cost < lower {
				best = p
				lower = p.Cost
			}
			if first || p.Cost < exprBest {
				exprBest = p.Cost
				first = false
			}
		}
		o.raiseUpper(id, exprBest)
	}
	if best == nil {
		return nil, fmt.Errorf("no physical plan for group G%d", id)
	}
	w := &Winner{Plan: best, Lower: lower, Upper: o.upper[id]}
	o.base[id] = w
	o.GroupsCosted++
	return w, nil
}

// orderKey canonicalizes an ordering requirement.
func orderKey(cols []scalar.ColID) string {
	var sb strings.Builder
	for _, c := range cols {
		sb.WriteString(strconv.Itoa(int(c)))
		sb.WriteByte(',')
	}
	return sb.String()
}

// satisfiesOrdering reports whether a provided ordering satisfies a
// requirement: the requirement must be a prefix of the provided ordering.
func satisfiesOrdering(provided, required []scalar.ColID) bool {
	if len(required) > len(provided) {
		return false
	}
	for i := range required {
		if provided[i] != required[i] {
			return false
		}
	}
	return true
}

// winnerOrdered computes the best plan for a group under a required sort
// order: the cheaper of (a) a native alternative already providing the
// order, and (b) the unordered winner plus a sort enforcer. Each
// requirement's optimal cost raises the group's upper bound, as in the
// paper's multi-requirement memo.
func (o *Optimizer) winnerOrdered(id memo.GroupID, req []scalar.ColID) (*Winner, error) {
	if len(req) == 0 {
		return o.winner(id)
	}
	key := orderKey(req)
	if m, ok := o.ordered[id]; ok {
		if w, ok := m[key]; ok {
			return w, nil
		}
	}
	g := o.M.Group(id)
	bw, err := o.winner(id)
	if err != nil {
		return nil, err
	}
	best := o.sortWrap(bw.Plan, req)
	for _, e := range g.Exprs {
		alts, err := o.alternativesFor(e, g)
		if err != nil {
			return nil, err
		}
		for _, p := range alts {
			if satisfiesOrdering(p.Provided, req) && p.Cost < best.Cost {
				best = p
			}
		}
	}
	w := &Winner{Plan: best, Lower: best.Cost, Upper: o.upper[id]}
	if o.ordered[id] == nil {
		o.ordered[id] = make(map[string]*Winner)
	}
	o.ordered[id][key] = w
	o.raiseUpper(id, best.Cost)
	return w, nil
}

// sortWrap adds a sort enforcer providing the required order.
func (o *Optimizer) sortWrap(p *Plan, req []scalar.ColID) *Plan {
	if satisfiesOrdering(p.Provided, req) {
		return p
	}
	return &Plan{
		Op:       PSort,
		Children: []*Plan{p},
		SortCols: req,
		Cols:     p.Cols,
		Provided: req,
		Rows:     p.Rows,
		Cost:     p.Cost + sortCost(p.Rows),
	}
}

// alternativesFor enumerates the physical alternatives of one group
// expression, each with fully-planned children (requesting child orderings
// where useful: merge joins and stream aggregation).
func (o *Optimizer) alternativesFor(e *memo.Expr, g *memo.Group) ([]*Plan, error) {
	if alts, ok := o.altMemo[e]; ok {
		return alts, nil
	}
	var alts []*Plan
	switch e.Op {
	case memo.OpScan:
		p, err := o.planExpr(e, g, nil)
		if err != nil {
			return nil, err
		}
		alts = append(alts, p)
		alts = append(alts, o.indexAlternatives(e, g)...)

	case memo.OpJoin:
		lw, err := o.winner(e.Children[0])
		if err != nil {
			return nil, err
		}
		rw, err := o.winner(e.Children[1])
		if err != nil {
			return nil, err
		}
		p, err := o.planJoin(e, g, lw.Plan, rw.Plan)
		if err != nil {
			return nil, err
		}
		alts = append(alts, p)

		lu, err := o.lookupAlternatives(e, g)
		if err != nil {
			return nil, err
		}
		alts = append(alts, lu...)

		// Merge-join alternative: request both children sorted on the keys.
		leftKeys, rightKeys, _ := o.joinKeys(e, lw.Plan.Cols, rw.Plan.Cols)
		if len(leftKeys) > 0 {
			lo, err := o.winnerOrdered(e.Children[0], leftKeys)
			if err != nil {
				return nil, err
			}
			ro, err := o.winnerOrdered(e.Children[1], rightKeys)
			if err != nil {
				return nil, err
			}
			if mj, err := o.planMergeJoin(e, g, lo.Plan, ro.Plan); err == nil && mj != nil {
				alts = append(alts, mj)
			}
		}

	case memo.OpGroupBy:
		cw, err := o.winner(e.Children[0])
		if err != nil {
			return nil, err
		}
		p, err := o.planExpr(e, g, []*Plan{cw.Plan})
		if err != nil {
			return nil, err
		}
		alts = append(alts, p)

		// Stream-aggregation alternative over a sorted child.
		if len(e.GroupCols) > 0 {
			req := scalar.SortColIDs(append([]scalar.ColID(nil), e.GroupCols...))
			co, err := o.winnerOrdered(e.Children[0], req)
			if err != nil {
				return nil, err
			}
			alts = append(alts, o.planStreamAgg(e, g, co.Plan, req))
		}

	default:
		children := make([]*Plan, len(e.Children))
		for i, c := range e.Children {
			cw, err := o.winner(c)
			if err != nil {
				return nil, err
			}
			children[i] = cw.Plan
		}
		p, err := o.planExpr(e, g, children)
		if err != nil {
			return nil, err
		}
		alts = append(alts, p)

		// Root sort elision: when ORDER BY keys are ascending plain columns
		// the child can provide, skip the final sort.
		if e.Op == memo.OpRoot {
			if req, ok := rootOrderingCols(e); ok {
				co, err := o.winnerOrdered(e.Children[0], req)
				if err != nil {
					return nil, err
				}
				if satisfiesOrdering(co.Plan.Provided, req) {
					elided := *p
					elided.Children = append([]*Plan{co.Plan}, p.Children[1:]...)
					elided.OrderBy = nil // rows arrive ordered
					elided.Cost = p.Cost - sortCost(children[0].Rows) - children[0].Cost + co.Plan.Cost
					alts = append(alts, &elided)
				}
			}
		}
	}
	o.altMemo[e] = alts
	return alts, nil
}

// rootOrderingCols maps a Root's ORDER BY onto child columns when every key
// is ascending and projects a plain column.
func rootOrderingCols(e *memo.Expr) ([]scalar.ColID, bool) {
	if len(e.OrderBy) == 0 {
		return nil, false
	}
	var req []scalar.ColID
	for _, k := range e.OrderBy {
		if k.Desc {
			return nil, false
		}
		pe := e.Projections[k.ProjIdx].Expr
		if pe.Op != scalar.OpCol {
			return nil, false
		}
		req = append(req, pe.Col)
	}
	return req, true
}

// planExpr builds a physical plan for one group expression given
// already-planned children. It is also the entry point of the CSE phase's
// recosting, which opportunistically uses merge/stream operators when the
// given children happen to provide the needed orderings.
func (o *Optimizer) planExpr(e *memo.Expr, g *memo.Group, children []*Plan) (*Plan, error) {
	switch e.Op {
	case memo.OpScan:
		rel := o.M.Md.Rel(e.Rel)
		baseRows := rel.Tab.Stats.RowCount
		if baseRows <= 0 {
			baseRows = 1
		}
		return &Plan{
			Op:       PScan,
			Rel:      e.Rel,
			Filter:   e.Filter,
			Cols:     g.OutCols,
			Provided: o.scanOrdering(e.Rel, g.OutCols),
			Rows:     g.Rows,
			Cost:     scanCost(baseRows, rel.Tab.AvgRowSize, e.Filter != nil),
		}, nil

	case memo.OpJoin:
		// Prefer a merge join when the given children already provide the
		// key orderings.
		if mj, err := o.planMergeJoin(e, g, children[0], children[1]); err == nil && mj != nil {
			if hj, err := o.planJoin(e, g, children[0], children[1]); err == nil && hj.Cost < mj.Cost {
				return hj, nil
			}
			return mj, nil
		}
		return o.planJoin(e, g, children[0], children[1])

	case memo.OpGroupBy:
		child := children[0]
		if len(e.GroupCols) > 0 {
			req := scalar.SortColIDs(append([]scalar.ColID(nil), e.GroupCols...))
			if satisfiesOrdering(child.Provided, req) {
				return o.planStreamAgg(e, g, child, req), nil
			}
		}
		cols := append([]scalar.ColID(nil), e.GroupCols...)
		for _, a := range e.Aggs {
			cols = append(cols, a.Out)
		}
		return &Plan{
			Op:        PHashAgg,
			Children:  []*Plan{child},
			GroupCols: e.GroupCols,
			Aggs:      e.Aggs,
			Cols:      cols,
			Rows:      g.Rows,
			Cost:      child.Cost + hashAggCost(child.Rows, g.Rows),
		}, nil

	case memo.OpSelect:
		child := children[0]
		return &Plan{
			Op:       PFilter,
			Children: []*Plan{child},
			Filter:   e.Filter,
			Cols:     child.Cols,
			Provided: child.Provided,
			Rows:     g.Rows,
			Cost:     child.Cost + filterCost(child.Rows),
		}, nil

	case memo.OpRoot:
		main := children[0]
		cost := main.Cost + projectCost(main.Rows)
		for _, sq := range children[1:] {
			cost += sq.Cost
		}
		if len(e.OrderBy) > 0 {
			cost += sortCost(main.Rows)
		}
		names := make([]string, len(e.Projections))
		for i, p := range e.Projections {
			names[i] = p.Name
		}
		// Map subquery child groups back to metadata indices.
		idxs := make([]int, 0, len(children)-1)
		for _, cg := range e.Children[1:] {
			idx := -1
			for i, r := range o.M.SubqueryRoots {
				if r == cg {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("root child G%d is not a registered subquery", cg)
			}
			idxs = append(idxs, idx)
		}
		return &Plan{
			Op:           PRoot,
			Children:     children,
			Projections:  e.Projections,
			OrderBy:      e.OrderBy,
			Limit:        e.Limit,
			OutputNames:  names,
			SubqueryIdxs: idxs,
			Rows:         main.Rows,
			Cost:         cost,
		}, nil

	case memo.OpSeq:
		cost := 0.0
		rows := 0.0
		for _, c := range children {
			cost += c.Cost
			rows += c.Rows
		}
		return &Plan{Op: PSeq, Children: children, Rows: rows, Cost: cost}, nil

	case memo.OpSpool:
		// A spool's plan is its child; write cost is accounted as part of
		// the candidate's initial cost, not here.
		return children[0], nil

	default:
		return nil, fmt.Errorf("cannot plan memo op %s", e.Op)
	}
}

// scanOrdering maps a table's physical ordering onto the scan's output
// columns (stopping at the first ordering column pruned from the output).
func (o *Optimizer) scanOrdering(rid logical.RelID, outCols []scalar.ColID) []scalar.ColID {
	rel := o.M.Md.Rel(rid)
	out := colSetOf(outCols)
	var provided []scalar.ColID
	for _, ord := range rel.Tab.OrderedBy {
		c := rel.ColID(ord)
		if !out.Contains(c) {
			break
		}
		provided = append(provided, c)
	}
	return provided
}

// joinKeys extracts equi-key column pairs (canonically ordered by the left
// column ID) and the residual conjuncts of a join expression.
func (o *Optimizer) joinKeys(e *memo.Expr, leftCols, rightCols []scalar.ColID) (lk, rk []scalar.ColID, residual []*scalar.Expr) {
	lset := colSetOf(leftCols)
	rset := colSetOf(rightCols)
	type pair struct{ l, r scalar.ColID }
	var pairs []pair
	for _, c := range scalar.Conjuncts(e.Filter) {
		if a, b, ok := c.IsColEqCol(); ok {
			switch {
			case lset.Contains(a) && rset.Contains(b):
				pairs = append(pairs, pair{a, b})
				continue
			case lset.Contains(b) && rset.Contains(a):
				pairs = append(pairs, pair{b, a})
				continue
			}
		}
		residual = append(residual, c)
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].l < pairs[j-1].l; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	for _, p := range pairs {
		lk = append(lk, p.l)
		rk = append(rk, p.r)
	}
	return lk, rk, residual
}

// planJoin picks hash join (when equi-keys exist) with the cheaper build
// side, falling back to a nested-loop join. A hash join streams its probe
// side, so it preserves the probe input's ordering.
func (o *Optimizer) planJoin(e *memo.Expr, g *memo.Group, left, right *Plan) (*Plan, error) {
	leftKeys, rightKeys, residual := o.joinKeys(e, left.Cols, right.Cols)
	outCols := append(append([]scalar.ColID(nil), left.Cols...), right.Cols...)
	var resFilter *scalar.Expr
	if len(residual) > 0 {
		resFilter = scalar.And(residual...)
	}

	if len(leftKeys) == 0 {
		return &Plan{
			Op:       PNLJoin,
			Children: []*Plan{left, right},
			Filter:   resFilter,
			Cols:     outCols,
			Provided: left.Provided,
			Rows:     g.Rows,
			Cost:     left.Cost + right.Cost + nlJoinCost(left.Rows, right.Rows, g.Rows),
		}, nil
	}

	// Hash join: Children[1] is the build side. Swap so the smaller input
	// builds.
	if right.Rows <= left.Rows {
		return &Plan{
			Op:        PHashJoin,
			Children:  []*Plan{left, right},
			LeftKeys:  leftKeys,
			RightKeys: rightKeys,
			Filter:    resFilter,
			Cols:      outCols,
			Provided:  left.Provided,
			Rows:      g.Rows,
			Cost:      left.Cost + right.Cost + hashJoinCost(right.Rows, left.Rows, g.Rows),
		}, nil
	}
	outCols = append(append([]scalar.ColID(nil), right.Cols...), left.Cols...)
	return &Plan{
		Op:        PHashJoin,
		Children:  []*Plan{right, left},
		LeftKeys:  rightKeys,
		RightKeys: leftKeys,
		Filter:    resFilter,
		Cols:      outCols,
		Provided:  right.Provided,
		Rows:      g.Rows,
		Cost:      left.Cost + right.Cost + hashJoinCost(left.Rows, right.Rows, g.Rows),
	}, nil
}

// planMergeJoin builds a merge join when both children provide the key
// orderings; it returns nil when they do not.
func (o *Optimizer) planMergeJoin(e *memo.Expr, g *memo.Group, left, right *Plan) (*Plan, error) {
	leftKeys, rightKeys, residual := o.joinKeys(e, left.Cols, right.Cols)
	if len(leftKeys) == 0 {
		return nil, nil
	}
	if !satisfiesOrdering(left.Provided, leftKeys) || !satisfiesOrdering(right.Provided, rightKeys) {
		return nil, nil
	}
	var resFilter *scalar.Expr
	if len(residual) > 0 {
		resFilter = scalar.And(residual...)
	}
	outCols := append(append([]scalar.ColID(nil), left.Cols...), right.Cols...)
	return &Plan{
		Op:        PMergeJoin,
		Children:  []*Plan{left, right},
		LeftKeys:  leftKeys,
		RightKeys: rightKeys,
		Filter:    resFilter,
		Cols:      outCols,
		Provided:  leftKeys,
		Rows:      g.Rows,
		Cost:      left.Cost + right.Cost + mergeJoinCost(left.Rows, right.Rows, g.Rows),
	}, nil
}

// planStreamAgg builds a streaming aggregation over a sorted child.
func (o *Optimizer) planStreamAgg(e *memo.Expr, g *memo.Group, child *Plan, req []scalar.ColID) *Plan {
	cols := append([]scalar.ColID(nil), e.GroupCols...)
	for _, a := range e.Aggs {
		cols = append(cols, a.Out)
	}
	return &Plan{
		Op:        PStreamAgg,
		Children:  []*Plan{child},
		GroupCols: e.GroupCols,
		Aggs:      e.Aggs,
		Cols:      cols,
		Provided:  req,
		Rows:      g.Rows,
		Cost:      child.Cost + streamAggCost(child.Rows, g.Rows),
	}
}
