package memo

import (
	"fmt"
	"math/bits"

	"repro/internal/logical"
	"repro/internal/scalar"
	"repro/internal/sqltypes"
)

// maxBlockRels bounds the join-subset DP per block (2^n subsets).
const maxBlockRels = 14

// Build constructs the memo for a bound batch: per-statement join-subset
// exploration, eager-aggregation alternatives, statement roots, and the
// batch root. Signatures are registered as groups are created (Step 1 of
// the paper's architecture).
func Build(batch *logical.Batch) (*Memo, error) {
	md := batch.Metadata
	m := NewMemo(md)
	b := &builder{m: m, est: &Estimator{Md: md}}
	m.SubqueryRoots = make([]GroupID, md.NumSubqueries())
	for i := range m.SubqueryRoots {
		m.SubqueryRoots[i] = InvalidGroup
	}

	for i, st := range batch.Statements {
		rootID, err := b.buildStatement(st.Block, i)
		if err != nil {
			return nil, fmt.Errorf("statement %d: %w", i+1, err)
		}
		m.StmtRoots = append(m.StmtRoots, rootID)
	}

	// Batch root: the dummy operator tying the statements together.
	seq := m.NewGroup(&Group{StmtIdx: -1})
	var rows float64
	for _, r := range m.StmtRoots {
		rows += m.Group(r).Rows
	}
	seq.Rows = rows
	m.AddExpr(seq, &Expr{Op: OpSeq, Children: append([]GroupID(nil), m.StmtRoots...)})
	m.RootGroup = seq.ID
	return m, nil
}

type builder struct {
	m   *Memo
	est *Estimator
}

// AddBlock inserts an additional SPJG block into an already-built memo and
// returns its top group. The CSE manager uses this to materialize candidate
// covering expressions as memo groups after normal optimization; their
// subset groups register signatures too, which is what makes stacked CSEs
// (§5.5) detectable. The stmtIdx convention: candidate expressions pass a
// negative index encoding the candidate (-2 - candidateID).
func (m *Memo) AddBlock(blk *logical.Block, stmtIdx int) (GroupID, error) {
	b := &builder{m: m, est: &Estimator{Md: m.Md}}
	top, _, err := b.buildBlock(blk, stmtIdx)
	return top, err
}

// buildStatement builds a top-level statement: its block plus an OpRoot
// group carrying projections, ORDER BY, and LIMIT. Scalar subqueries the
// statement references become extra root children so they are part of the
// statement's group DAG.
func (b *builder) buildStatement(blk *logical.Block, stmtIdx int) (GroupID, error) {
	top, sqs, err := b.buildBlock(blk, stmtIdx)
	if err != nil {
		return InvalidGroup, err
	}
	root := b.m.NewGroup(&Group{
		Rels:    b.m.Group(top).Rels,
		Rows:    b.m.Group(top).Rows,
		StmtIdx: stmtIdx,
	})
	children := append([]GroupID{top}, sqs...)
	b.m.AddExpr(root, &Expr{
		Op:          OpRoot,
		Children:    children,
		Projections: blk.Projections,
		OrderBy:     blk.OrderBy,
		Limit:       blk.Limit,
	})
	return root.ID, nil
}

// buildBlock builds the group DAG for one SPJG block and returns its top
// group plus the root groups of every scalar subquery it references, in
// dependency order (a subquery's own subqueries first).
func (b *builder) buildBlock(blk *logical.Block, stmtIdx int) (GroupID, []GroupID, error) {
	// Build referenced subqueries first.
	var sqs []GroupID
	seen := make(map[int]bool)
	var collect func(e *scalar.Expr) error
	collect = func(e *scalar.Expr) error {
		if e == nil {
			return nil
		}
		if e.Op == scalar.OpSubquery {
			idx := int(e.Col)
			if seen[idx] {
				return nil
			}
			seen[idx] = true
			if g := b.m.SubqueryRoots[idx]; g != InvalidGroup {
				sqs = append(sqs, g)
				return nil
			}
			sub := b.m.Md.Subquery(idx)
			top, inner, err := b.buildBlock(sub, stmtIdx)
			if err != nil {
				return err
			}
			sqs = append(sqs, inner...)
			sqs = append(sqs, top)
			b.m.SubqueryRoots[idx] = top
			return nil
		}
		for _, a := range e.Args {
			if err := collect(a); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range blk.Conjuncts {
		if err := collect(c); err != nil {
			return InvalidGroup, nil, err
		}
	}
	if err := collect(blk.Having); err != nil {
		return InvalidGroup, nil, err
	}

	bc, err := newBlockCtx(b, blk, stmtIdx)
	if err != nil {
		return InvalidGroup, nil, err
	}

	// Leaf scan groups and join-subset DP.
	if err := bc.buildJoinGroups(); err != nil {
		return InvalidGroup, nil, err
	}
	top := bc.groups[bc.full]

	// Aggregation.
	if blk.HasGroup {
		top = bc.buildAggregation(top)
	}

	// HAVING.
	if blk.Having != nil {
		topG := b.m.Group(top)
		sel := b.m.NewGroup(&Group{
			Rels:      topG.Rels,
			OutCols:   topG.OutCols,
			Rows:      maxf(topG.Rows*b.est.Selectivity(blk.Having), 1),
			RowSize:   topG.RowSize,
			Conjuncts: topG.Conjuncts,
			GroupCols: topG.GroupCols,
			Aggs:      topG.Aggs,
			Grouped:   topG.Grouped,
			StmtIdx:   stmtIdx,
		})
		b.m.AddExpr(sel, &Expr{Op: OpSelect, Children: []GroupID{top}, Filter: blk.Having})
		top = sel.ID
	}
	return top, sqs, nil
}

// blockCtx holds per-block DP state. Relations are numbered locally
// (0..n-1); masks are bitmaps over local indices.
type blockCtx struct {
	b       *builder
	blk     *logical.Block
	stmtIdx int

	rels    []logical.RelID
	relCols []scalar.ColSet
	needed  scalar.ColSet

	conj     []*scalar.Expr
	conjHome []uint64 // local rel mask each conjunct touches

	adj  [][]bool
	full uint64

	groups  map[uint64]GroupID
	appl    map[uint64][]int
	partial map[uint64]*partialInfo // eager partial-aggregation groups by subset
}

// partialInfo describes an eager partial-aggregation group over a subset:
// which block aggregates it pre-computes (outs[i] = 0 when aggregate i's
// argument lies outside the subset) and the count(*) column used by the
// eager-count transformation to scale outside aggregates after the join.
type partialInfo struct {
	group *Group
	outs  []scalar.ColID // per block-aggregate index; 0 = absent
	cnt   scalar.ColID
}

// aggTarget describes the aggregation level a combine expression must
// produce: the block's final aggregation (cnt = 0) or another partial.
type aggTarget struct {
	mask      uint64
	groupCols []scalar.ColID
	outs      []scalar.ColID // per block-aggregate index; 0 = absent
	cnt       scalar.ColID   // 0 when the target needs no count column
}

// eagerAggMaxRatio gates eager aggregation: a partial aggregation is only
// generated when it reduces its input by at least this factor. This mirrors
// production optimizers (pre-aggregating on a near-key wastes work) and
// keeps the candidate sets aligned with the paper's Figure 6.
const eagerAggMaxRatio = 0.5

func newBlockCtx(b *builder, blk *logical.Block, stmtIdx int) (*blockCtx, error) {
	n := len(blk.Rels)
	if n == 0 {
		return nil, fmt.Errorf("block has no relations")
	}
	if n > maxBlockRels {
		return nil, fmt.Errorf("block joins %d tables; at most %d supported", n, maxBlockRels)
	}
	bc := &blockCtx{
		b:       b,
		blk:     blk,
		stmtIdx: stmtIdx,
		rels:    blk.Rels,
		needed:  blk.ReferencedCols(),
		full:    (uint64(1) << uint(n)) - 1,
		groups:  make(map[uint64]GroupID),
		appl:    make(map[uint64][]int),
		partial: make(map[uint64]*partialInfo),
	}
	bc.relCols = make([]scalar.ColSet, n)
	for i, r := range blk.Rels {
		bc.relCols[i] = b.m.Md.Rel(r).Cols()
	}

	// Conjunct home masks.
	bc.conj = blk.Conjuncts
	bc.conjHome = make([]uint64, len(bc.conj))
	for ci, c := range bc.conj {
		cols := c.Cols()
		var home uint64
		for i := range bc.relCols {
			if cols.Intersects(bc.relCols[i]) {
				home |= 1 << uint(i)
			}
		}
		bc.conjHome[ci] = home
	}

	// Adjacency from conjuncts spanning two or more relations.
	bc.adj = make([][]bool, n)
	for i := range bc.adj {
		bc.adj[i] = make([]bool, n)
	}
	for _, home := range bc.conjHome {
		members := maskMembers(home)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				bc.adj[members[i]][members[j]] = true
				bc.adj[members[j]][members[i]] = true
			}
		}
	}
	// If the join graph is disconnected (cross joins), chain the components
	// so the DP can still cover the full set.
	comps := bc.components(bc.full)
	for i := 1; i < len(comps); i++ {
		a := bits.TrailingZeros64(comps[i-1])
		c := bits.TrailingZeros64(comps[i])
		bc.adj[a][c] = true
		bc.adj[c][a] = true
	}
	return bc, nil
}

func maskMembers(mask uint64) []int {
	var out []int
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		out = append(out, i)
		mask &= mask - 1
	}
	return out
}

// components returns the connected components of the induced subgraph.
func (bc *blockCtx) components(mask uint64) []uint64 {
	var comps []uint64
	rest := mask
	for rest != 0 {
		start := bits.TrailingZeros64(rest)
		comp := uint64(1) << uint(start)
		frontier := []int{start}
		for len(frontier) > 0 {
			v := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for u := 0; u < len(bc.adj); u++ {
				if bc.adj[v][u] && mask&(1<<uint(u)) != 0 && comp&(1<<uint(u)) == 0 {
					comp |= 1 << uint(u)
					frontier = append(frontier, u)
				}
			}
		}
		comps = append(comps, comp)
		rest &^= comp
	}
	return comps
}

func (bc *blockCtx) connected(mask uint64) bool {
	return len(bc.components(mask)) == 1
}

// applicable returns the indices of conjuncts fully evaluable at mask.
// Conjuncts touching no relation (constants, pure subquery comparisons) are
// applied at the full set.
func (bc *blockCtx) applicable(mask uint64) []int {
	if cached, ok := bc.appl[mask]; ok {
		return cached
	}
	var out []int
	for ci, home := range bc.conjHome {
		if home == 0 {
			if mask == bc.full {
				out = append(out, ci)
			}
			continue
		}
		if home&^mask == 0 {
			out = append(out, ci)
		}
	}
	bc.appl[mask] = out
	return out
}

func (bc *blockCtx) conjuncts(idx []int) []*scalar.Expr {
	out := make([]*scalar.Expr, len(idx))
	for i, ci := range idx {
		out[i] = bc.conj[ci]
	}
	return out
}

// relsOf maps a local mask to metadata relation IDs.
func (bc *blockCtx) relsOf(mask uint64) []logical.RelID {
	var out []logical.RelID
	for _, i := range maskMembers(mask) {
		out = append(out, bc.rels[i])
	}
	return out
}

// relSetOf maps a local mask to the batch-wide instance set.
func (bc *blockCtx) relSetOf(mask uint64) logical.RelSet {
	var s logical.RelSet
	for _, r := range bc.relsOf(mask) {
		s.Add(r)
	}
	return s
}

// outColsOf returns the pruned output layout for a join subset.
func (bc *blockCtx) outColsOf(mask uint64) []scalar.ColID {
	var s scalar.ColSet
	for _, i := range maskMembers(mask) {
		s.UnionWith(bc.relCols[i].Intersection(bc.needed))
	}
	out := s.Ordered()
	if len(out) == 0 {
		// Keep at least one column so the row has a shape.
		first := maskMembers(mask)[0]
		out = []scalar.ColID{bc.relCols[first].Ordered()[0]}
	}
	return out
}

// signatureOf computes the table signature of the join subset directly from
// the instance table names (equivalent to folding Figure 2's join rule).
func (bc *blockCtx) signatureOf(mask uint64, grouped bool) Signature {
	var names []string
	seen := make(map[string]bool)
	selfJoin := false
	for _, r := range bc.relsOf(mask) {
		name := bc.b.m.Md.Rel(r).Tab.Name
		lower := lowerName(name)
		if seen[lower] {
			selfJoin = true
			continue
		}
		seen[lower] = true
		names = append(names, lower)
	}
	sortLower(names)
	return Signature{Valid: true, Grouped: grouped, Tables: names, SelfJoin: selfJoin}
}

func lowerName(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// buildJoinGroups creates the scan groups and all connected join-subset
// groups with their alternative join expressions.
func (bc *blockCtx) buildJoinGroups() error {
	m := bc.b.m
	est := bc.b.est
	n := len(bc.rels)

	// Scans.
	for i := 0; i < n; i++ {
		mask := uint64(1) << uint(i)
		applIdx := bc.applicable(mask)
		filter := scalar.And(bc.conjuncts(applIdx)...)
		rows := est.BaseRows(bc.rels[i]) * est.Selectivity(filter)
		if rows < 1 {
			rows = 1
		}
		out := bc.outColsOf(mask)
		g := m.NewGroup(&Group{
			Rels:      bc.relSetOf(mask),
			OutCols:   out,
			Rows:      rows,
			RowSize:   est.RowWidth(out),
			Sig:       bc.signatureOf(mask, false),
			Conjuncts: bc.conjuncts(applIdx),
			StmtIdx:   bc.stmtIdx,
		})
		var f *scalar.Expr
		if !scalar.IsTrue(filter) {
			f = filter
		}
		m.AddExpr(g, &Expr{Op: OpScan, Rel: bc.rels[i], Filter: f})
		bc.groups[mask] = g.ID
	}
	if n == 1 {
		return nil
	}

	// Subsets by increasing size.
	for size := 2; size <= n; size++ {
		for mask := uint64(1); mask <= bc.full; mask++ {
			if bits.OnesCount64(mask) != size || !bc.connected(mask) {
				continue
			}
			applIdx := bc.applicable(mask)
			out := bc.outColsOf(mask)
			g := m.NewGroup(&Group{
				Rels:      bc.relSetOf(mask),
				OutCols:   out,
				Rows:      est.JoinRows(bc.relsOf(mask), bc.conjuncts(applIdx)),
				RowSize:   est.RowWidth(out),
				Sig:       bc.signatureOf(mask, false),
				Conjuncts: bc.conjuncts(applIdx),
				StmtIdx:   bc.stmtIdx,
			})
			bc.groups[mask] = g.ID
			if err := bc.addJoinExprs(g, mask, applIdx, true); err != nil {
				return err
			}
			if len(g.Exprs) == 0 {
				// No edged partition: allow cross products as a fallback.
				if err := bc.addJoinExprs(g, mask, applIdx, false); err != nil {
					return err
				}
			}
			if len(g.Exprs) == 0 {
				return fmt.Errorf("no join expression for subset %b", mask)
			}
		}
	}
	return nil
}

// addJoinExprs enumerates partitions of mask into two connected halves. When
// requireCond is true, partitions with no connecting conjunct (pure cross
// products) are skipped.
func (bc *blockCtx) addJoinExprs(g *Group, mask uint64, applIdx []int, requireCond bool) error {
	m := bc.b.m
	low := uint64(1) << uint(bits.TrailingZeros64(mask))
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		if sub&low == 0 {
			// Canonical orientation: the half containing the lowest bit is
			// the left child, so each partition is enumerated once.
			continue
		}
		rest := mask &^ sub
		leftID, okL := bc.groups[sub]
		rightID, okR := bc.groups[rest]
		if !okL || !okR {
			continue // a half is not connected
		}
		condIdx := diffIdx(applIdx, bc.applicable(sub), bc.applicable(rest))
		if requireCond && len(condIdx) == 0 {
			continue
		}
		var cond *scalar.Expr
		if len(condIdx) > 0 {
			cond = scalar.And(bc.conjuncts(condIdx)...)
		}
		m.AddExpr(g, &Expr{Op: OpJoin, Children: []GroupID{leftID, rightID}, Filter: cond})
	}
	return nil
}

// diffIdx returns all − a − b (indices, each slice sorted ascending).
func diffIdx(all, a, b []int) []int {
	drop := make(map[int]bool, len(a)+len(b))
	for _, i := range a {
		drop[i] = true
	}
	for _, i := range b {
		drop[i] = true
	}
	var out []int
	for _, i := range all {
		if !drop[i] {
			out = append(out, i)
		}
	}
	return out
}

// buildAggregation creates the block's final aggregation group, including
// eager-aggregation alternatives: for each connected proper subset S_agg
// (size ≥ 2) covering the aggregate arguments, a partial-aggregation group
// γ_partial(S_agg) is created, joined with the remaining relations, and
// re-aggregated. The partial groups carry [T; tables] signatures and are the
// grouped CSE consumers of §6 (the paper's E4/E5 pattern).
func (bc *blockCtx) buildAggregation(joinTop GroupID) GroupID {
	m := bc.b.m
	est := bc.b.est
	blk := bc.blk
	topG := m.Group(joinTop)

	outCols := append([]scalar.ColID(nil), blk.GroupCols...)
	for _, a := range blk.Aggs {
		outCols = append(outCols, a.Out)
	}
	outCols = scalar.SortColIDs(outCols)

	final := m.NewGroup(&Group{
		Rels:      topG.Rels,
		OutCols:   outCols,
		Rows:      est.GroupRows(topG.Rows, blk.GroupCols),
		RowSize:   est.RowWidth(outCols),
		Sig:       bc.signatureOf(bc.full, true),
		Conjuncts: topG.Conjuncts,
		GroupCols: blk.GroupCols,
		Aggs:      blk.Aggs,
		Grouped:   true,
		StmtIdx:   bc.stmtIdx,
	})
	m.AddExpr(final, &Expr{
		Op:        OpGroupBy,
		Children:  []GroupID{joinTop},
		GroupCols: blk.GroupCols,
		Aggs:      blk.Aggs,
		AggMode:   AggFinal,
	})

	// Eager-aggregation alternatives, recursively: the final aggregation can
	// combine a partial aggregation over any connected proper subset, and a
	// partial aggregation can itself combine a narrower one (multi-stage
	// aggregation). The recursion makes narrow partial-aggregate groups
	// memo descendants of wider ones, which the containment heuristic
	// (§4.3.4) relies on. Aggregates whose arguments lie outside the subset
	// use the eager-count transformation: the partial aggregation carries a
	// count(*) column and the combining aggregation scales by it.
	finalTarget := aggTarget{mask: bc.full, groupCols: blk.GroupCols}
	finalTarget.outs = make([]scalar.ColID, len(blk.Aggs))
	for i, a := range blk.Aggs {
		finalTarget.outs[i] = a.Out
	}
	for sAgg := uint64(1); sAgg < bc.full; sAgg++ {
		if !bc.validAggSubset(sAgg) {
			continue
		}
		pi := bc.partialGroupFor(sAgg)
		bc.addCombineExpr(final, finalTarget, pi)
	}
	return final.ID
}

// validAggSubset reports whether sAgg can host an eager partial aggregation:
// a connected proper subset of two or more relations, with each aggregate's
// argument either fully inside or fully outside the subset (outside requires
// an eager-count-compatible aggregate), achieving a real reduction.
func (bc *blockCtx) validAggSubset(sAgg uint64) bool {
	if bits.OnesCount64(sAgg) < 2 {
		return false
	}
	if _, ok := bc.groups[sAgg]; !ok {
		return false
	}
	var sAggCols scalar.ColSet
	for _, i := range maskMembers(sAgg) {
		sAggCols.UnionWith(bc.relCols[i])
	}
	for _, a := range bc.blk.Aggs {
		if a.Arg == nil {
			continue // count(*) is always decomposable
		}
		cols := a.Arg.Cols()
		inside := cols.SubsetOf(sAggCols)
		outside := !cols.Intersects(sAggCols)
		switch {
		case inside:
		case outside:
			// Eager count handles sum/min/max/count(*); count(expr) with
			// an outside argument has no null-aware decomposition here.
			if a.Kind == scalar.AggCount {
				return false
			}
		default:
			return false // argument spans the boundary
		}
	}
	// Reduction gate.
	child := bc.b.m.Group(bc.groups[sAgg])
	reduced := bc.b.est.GroupRows(child.Rows, bc.pColsFor(sAgg))
	return reduced <= eagerAggMaxRatio*child.Rows
}

// aggArgMask returns the local relation mask touched by aggregate arguments.
func (bc *blockCtx) aggArgMask() uint64 {
	var cols scalar.ColSet
	for _, a := range bc.blk.Aggs {
		if a.Arg != nil {
			cols.UnionWith(a.Arg.Cols())
		}
	}
	var mask uint64
	for i := range bc.relCols {
		if cols.Intersects(bc.relCols[i]) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// pColsFor computes the grouping columns of an eager partial aggregation
// over sAgg: the block's grouping columns from sAgg plus any sAgg column
// referenced by a conjunct not yet applied within sAgg (join columns to the
// rest of the block, and columns of filters applied later). The formula
// depends only on the block and sAgg, so the same partial group serves every
// combining context.
func (bc *blockCtx) pColsFor(sAgg uint64) []scalar.ColID {
	var pSet scalar.ColSet
	var sAggCols scalar.ColSet
	for _, i := range maskMembers(sAgg) {
		sAggCols.UnionWith(bc.relCols[i])
	}
	for _, gcol := range bc.blk.GroupCols {
		if sAggCols.Contains(gcol) {
			pSet.Add(gcol)
		}
	}
	applied := make(map[int]bool)
	for _, ci := range bc.applicable(sAgg) {
		applied[ci] = true
	}
	for ci, c := range bc.conj {
		if applied[ci] {
			continue
		}
		pSet.UnionWith(c.Cols().Intersection(sAggCols))
	}
	return pSet.Ordered()
}

// partialGroupFor creates (once per subset) the eager partial-aggregation
// group over sAgg: partial versions of the block aggregates whose arguments
// lie inside the subset, plus a count(*) column for eager-count scaling. It
// recursively adds multi-stage alternatives combining narrower partials.
func (bc *blockCtx) partialGroupFor(sAgg uint64) *partialInfo {
	m := bc.b.m
	est := bc.b.est
	md := m.Md
	if pi, ok := bc.partial[sAgg]; ok {
		return pi
	}

	aggChild := m.Group(bc.groups[sAgg])
	pCols := bc.pColsFor(sAgg)
	var sAggCols scalar.ColSet
	for _, i := range maskMembers(sAgg) {
		sAggCols.UnionWith(bc.relCols[i])
	}

	pi := &partialInfo{outs: make([]scalar.ColID, len(bc.blk.Aggs))}
	var defs []logical.AggDef
	for i, a := range bc.blk.Aggs {
		if a.Arg != nil && !a.Arg.Cols().SubsetOf(sAggCols) {
			continue // outside aggregate: scaled by cnt after the join
		}
		out := md.AddSynthesized("partial_"+a.String(), aggOutKind(md, a))
		pi.outs[i] = out
		defs = append(defs, logical.AggDef{Kind: a.Kind, Arg: a.Arg, Out: out})
	}
	pi.cnt = md.AddSynthesized("partial_count(*)", sqltypes.KindInt)
	defs = append(defs, logical.AggDef{Kind: scalar.AggCountStar, Out: pi.cnt})

	pOut := append([]scalar.ColID(nil), pCols...)
	for _, d := range defs {
		pOut = append(pOut, d.Out)
	}
	pOut = scalar.SortColIDs(pOut)

	partialG := m.NewGroup(&Group{
		Rels:      aggChild.Rels,
		OutCols:   pOut,
		Rows:      est.GroupRows(aggChild.Rows, pCols),
		RowSize:   est.RowWidth(pOut),
		Sig:       bc.signatureOf(sAgg, true),
		Conjuncts: aggChild.Conjuncts,
		GroupCols: pCols,
		Aggs:      defs,
		Grouped:   true,
		StmtIdx:   bc.stmtIdx,
	})
	m.AddExpr(partialG, &Expr{
		Op:        OpGroupBy,
		Children:  []GroupID{bc.groups[sAgg]},
		GroupCols: pCols,
		Aggs:      defs,
		AggMode:   AggPartial,
	})
	pi.group = partialG
	bc.partial[sAgg] = pi

	// Multi-stage alternatives: combine a narrower partial aggregation.
	target := aggTarget{mask: sAgg, groupCols: pCols, outs: pi.outs, cnt: pi.cnt}
	for s2 := uint64(1); s2 < sAgg; s2++ {
		if s2&^sAgg != 0 || !bc.validAggSubset(s2) {
			continue
		}
		inner := bc.partialGroupFor(s2)
		bc.addCombineExpr(partialG, target, inner)
	}
	return pi
}

// combineDefs builds the combining aggregates that roll partial results (pi)
// up to the target level. Inside aggregates fold partial columns; outside
// aggregates apply the eager-count rule (sums scale by the count column,
// min/max pass through, count(*) sums the counts).
func (bc *blockCtx) combineDefs(target aggTarget, pi *partialInfo) []logical.AggDef {
	var out []logical.AggDef
	for i, a := range bc.blk.Aggs {
		if target.outs[i] == 0 {
			continue
		}
		if src := pi.outs[i]; src != 0 {
			out = append(out, CombineAgg(logical.AggDef{Kind: a.Kind, Arg: a.Arg, Out: target.outs[i]}, src))
			continue
		}
		// Outside aggregate: eager count.
		var def logical.AggDef
		switch a.Kind {
		case scalar.AggSum:
			def = logical.AggDef{
				Kind: scalar.AggSum,
				Arg:  scalar.Arith(scalar.OpMul, a.Arg, scalar.Col(pi.cnt)),
				Out:  target.outs[i],
			}
		case scalar.AggMin, scalar.AggMax:
			def = logical.AggDef{Kind: a.Kind, Arg: a.Arg, Out: target.outs[i]}
		case scalar.AggCountStar:
			def = logical.AggDef{Kind: scalar.AggSum0, Arg: scalar.Col(pi.cnt), Out: target.outs[i]}
		default:
			// validAggSubset rejects these; defensive.
			def = logical.AggDef{Kind: a.Kind, Arg: a.Arg, Out: target.outs[i]}
		}
		out = append(out, def)
	}
	if target.cnt != 0 {
		out = append(out, logical.AggDef{Kind: scalar.AggSum, Arg: scalar.Col(pi.cnt), Out: target.cnt})
	}
	return out
}

// addCombineExpr adds to target's group an expression that joins the partial
// aggregation with the remaining relations of the target's subset and
// re-aggregates to the target level.
func (bc *blockCtx) addCombineExpr(target *Group, tgt aggTarget, pi *partialInfo) {
	m := bc.b.m
	est := bc.b.est

	sAgg := maskOfRels(bc, pi.group.Rels)
	partialG := pi.group

	// Join the partial result with the remaining relations, one at a time,
	// following graph adjacency.
	cur := partialG
	covered := sAgg
	appliedIdx := append([]int(nil), bc.applicable(sAgg)...)
	rest := tgt.mask &^ sAgg
	for rest != 0 {
		next := bc.pickNext(covered, rest)
		mask := covered | (uint64(1) << uint(next))
		condIdx := diffIdx(bc.applicable(mask), appliedIdx, bc.applicable(uint64(1)<<uint(next)))
		var cond *scalar.Expr
		if len(condIdx) > 0 {
			cond = scalar.And(bc.conjuncts(condIdx)...)
		}
		appliedIdx = append(appliedIdx, condIdx...)
		appliedIdx = append(appliedIdx, bc.applicable(uint64(1)<<uint(next))...)

		scanG := m.Group(bc.groups[uint64(1)<<uint(next)])
		outSet := scalar.MakeColSet(cur.OutCols...)
		outSet.UnionWith(scalar.MakeColSet(scanG.OutCols...))
		out := outSet.Ordered()
		rows := cur.Rows * scanG.Rows
		if cond != nil {
			rows *= est.Selectivity(cond)
		}
		if rows < 1 {
			rows = 1
		}
		jg := m.NewGroup(&Group{
			Rels:    cur.Rels.Union(scanG.Rels),
			OutCols: out,
			Rows:    rows,
			RowSize: est.RowWidth(out),
			// No signature: a join above a group-by is not an SPJG
			// expression (Figure 2 join rule requires G=F inputs).
			Conjuncts: bc.conjuncts(bc.applicable(mask)),
			StmtIdx:   bc.stmtIdx,
		})
		m.AddExpr(jg, &Expr{Op: OpJoin, Children: []GroupID{cur.ID, scanG.ID}, Filter: cond})
		cur = jg
		covered = mask
		rest &^= uint64(1) << uint(next)
	}

	// Combining aggregation on top, producing the target's outputs.
	m.AddExpr(target, &Expr{
		Op:        OpGroupBy,
		Children:  []GroupID{cur.ID},
		GroupCols: tgt.groupCols,
		Aggs:      bc.combineDefs(tgt, pi),
		AggMode:   AggCombine,
	})
}

// maskOfRels converts a batch-wide instance set back to this block's local
// relation mask.
func maskOfRels(bc *blockCtx, rels logical.RelSet) uint64 {
	var mask uint64
	for i, r := range bc.rels {
		if rels.Contains(r) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// pickNext chooses the next relation from rest adjacent to the covered set,
// falling back to the lowest remaining relation.
func (bc *blockCtx) pickNext(covered, rest uint64) int {
	for _, i := range maskMembers(rest) {
		for _, j := range maskMembers(covered) {
			if bc.adj[i][j] {
				return i
			}
		}
	}
	return bits.TrailingZeros64(rest)
}

// CombineAgg returns the aggregate that combines partial results stored in
// column partialOut into the original aggregate's output: sums add up,
// min/min and max/max fold, and counts add up with AggSum0 — a count over
// no rows is 0, where a plain sum of no partial counts would be NULL.
func CombineAgg(orig logical.AggDef, partialOut scalar.ColID) logical.AggDef {
	kind := orig.Kind
	if kind == scalar.AggCount || kind == scalar.AggCountStar {
		kind = scalar.AggSum0
	}
	return logical.AggDef{Kind: kind, Arg: scalar.Col(partialOut), Out: orig.Out}
}

func aggOutKind(md *logical.Metadata, a logical.AggDef) sqltypes.Kind {
	return logical.InferKind(md, scalar.Agg(a.Kind, a.Arg))
}
