package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/opt"
	"repro/internal/scalar"
)

// spec is a candidate covering subexpression under construction, before it
// is materialized into memo groups. The first consumer's column space is the
// candidate's canonical space; all other consumers are aligned to it through
// base keys. A spec carries enough information to estimate C_E bounds, C_W,
// and C_R, which is all the pruning heuristics need (§4.3) — the expression
// is inserted into the memo only for candidates that survive pruning.
type spec struct {
	consumers []memo.GroupID
	m         *memo.Memo

	canon   *memo.Group
	canonCM *colMapper
	mappers map[memo.GroupID]*colMapper

	equiv         *baseEquiv     // intersected equivalence classes (step 1)
	joinConjuncts []*scalar.Expr // canonical-space equijoin predicates
	shared        []*scalar.Expr // conjuncts common to every consumer, ANDed into the CSE
	covering      *scalar.Expr   // OR of per-consumer remainders (step 3); nil = TRUE
	residuals     map[memo.GroupID]*scalar.Expr

	grouped   bool
	groupCols []scalar.ColID   // step 4, canonical space
	aggs      []logical.AggDef // step 4: union of consumer aggregates
	aggOutFor map[string]scalar.ColID

	outCols []scalar.ColID // step 5
	rows    float64
	bytes   float64

	tables []string
}

// buildSpec runs the §4.2 construction for a set of join-compatible
// consumers with a common table signature.
func buildSpec(m *memo.Memo, consumers []memo.GroupID) (*spec, error) {
	if len(consumers) == 0 {
		return nil, fmt.Errorf("buildSpec with no consumers")
	}
	md := m.Md
	s := &spec{
		consumers: append([]memo.GroupID(nil), consumers...),
		m:         m,
		mappers:   make(map[memo.GroupID]*colMapper, len(consumers)),
		residuals: make(map[memo.GroupID]*scalar.Expr, len(consumers)),
		aggOutFor: make(map[string]scalar.ColID),
	}
	s.canon = m.Group(consumers[0])
	s.grouped = s.canon.Grouped
	s.tables = append([]string(nil), s.canon.Sig.Tables...)

	var err error
	s.canonCM, err = newColMapper(md, s.canon)
	if err != nil {
		return nil, err
	}
	s.mappers[consumers[0]] = s.canonCM
	for _, cid := range consumers[1:] {
		cm, err := newColMapper(md, m.Group(cid))
		if err != nil {
			return nil, err
		}
		s.mappers[cid] = cm
	}

	// Step 1: intersect equivalence classes and derive the join predicate.
	s.equiv = equivOf(md, s.canon)
	for _, cid := range consumers[1:] {
		s.equiv = intersectEquiv(s.equiv, equivOf(md, m.Group(cid)))
	}
	for _, class := range s.equiv.classes() {
		first, ok := s.canonCM.colFor(class[0])
		if !ok {
			continue
		}
		for _, k := range class[1:] {
			c, ok := s.canonCM.colFor(k)
			if !ok {
				continue
			}
			s.joinConjuncts = append(s.joinConjuncts, scalar.Eq(scalar.Col(first), scalar.Col(c)))
		}
	}

	// Steps 2–3: simplify each consumer's predicate by dropping conjuncts
	// implied by the join predicate, factor out conjuncts common to every
	// consumer (they apply to the CSE as plain AND conditions, like the
	// shared o_orderdate filter in the paper's E5), and OR the remainders
	// into the covering predicate. Each consumer's compensation residual is
	// its own remainder.
	simplified := make(map[memo.GroupID][]*scalar.Expr, len(consumers))
	counts := make(map[string]int)
	var sharedOrder []string
	sharedExpr := make(map[string]*scalar.Expr)
	for _, cid := range consumers {
		conj, err := s.simplifiedConjuncts(m.Group(cid), s.mappers[cid])
		if err != nil {
			return nil, err
		}
		simplified[cid] = conj
		seen := make(map[string]bool)
		for _, c := range conj {
			if c.HasSubquery() {
				// Subquery comparisons are evaluated per statement at
				// execution time; a shared spool can materialize before a
				// later statement's subquery exists, so such conjuncts may
				// never move into the covering expression — they stay in
				// the owning consumer's compensation residual.
				continue
			}
			fp := c.Fingerprint()
			if seen[fp] {
				continue
			}
			seen[fp] = true
			if counts[fp] == 0 {
				sharedOrder = append(sharedOrder, fp)
				sharedExpr[fp] = c
			}
			counts[fp]++
		}
	}
	isShared := make(map[string]bool)
	for _, fp := range sharedOrder {
		if counts[fp] == len(consumers) {
			isShared[fp] = true
			s.shared = append(s.shared, sharedExpr[fp])
		}
	}
	anyTrue := false
	var disjuncts []*scalar.Expr
	for _, cid := range consumers {
		var rem, coverable []*scalar.Expr
		for _, c := range simplified[cid] {
			if isShared[c.Fingerprint()] {
				continue
			}
			rem = append(rem, c)
			if !c.HasSubquery() {
				coverable = append(coverable, c)
			}
		}
		s.residuals[cid] = scalar.And(rem...)
		cov := scalar.And(coverable...)
		if scalar.IsTrue(cov) {
			anyTrue = true
		} else {
			disjuncts = append(disjuncts, cov)
		}
	}
	if !anyTrue && len(disjuncts) > 0 {
		s.covering = scalar.Or(disjuncts...)
		// Hull-simplify when it retains some constraint (the paper's E5
		// shows the hull form); a degenerate TRUE hull would unfilter the
		// spool entirely, so keep the OR then.
		if h := hullSimplify(s.covering); h != nil {
			s.covering = h
		}
	}
	// Columns every compensation residual needs — the spool must carry them
	// whether or not the (possibly hull-simplified) covering references them.
	var residualCols scalar.ColSet
	for _, res := range s.residuals {
		residualCols.UnionWith(res.Cols())
	}

	// Step 4: grouping columns and aggregate expressions.
	if s.grouped {
		var gset scalar.ColSet
		for _, cid := range consumers {
			g := m.Group(cid)
			cm := s.mappers[cid]
			for _, gc := range g.GroupCols {
				mapped, err := mapCol(gc, cm, s.canonCM)
				if err != nil {
					return nil, err
				}
				gset.Add(mapped)
			}
			for _, a := range g.Aggs {
				if _, err := s.addAgg(a, cm); err != nil {
					return nil, err
				}
			}
		}
		if s.covering != nil {
			gset.UnionWith(s.covering.Cols())
		}
		gset.UnionWith(residualCols)
		s.groupCols = gset.Ordered()
	}

	// Step 5: output columns.
	var out scalar.ColSet
	if s.grouped {
		for _, gc := range s.groupCols {
			out.Add(gc)
		}
		for _, a := range s.aggs {
			out.Add(a.Out)
		}
	} else {
		for _, cid := range consumers {
			g := m.Group(cid)
			cm := s.mappers[cid]
			for _, c := range g.OutCols {
				mapped, err := mapCol(c, cm, s.canonCM)
				if err != nil {
					return nil, err
				}
				out.Add(mapped)
			}
		}
		if s.covering != nil {
			out.UnionWith(s.covering.Cols())
		}
		out.UnionWith(residualCols)
	}
	s.outCols = out.Ordered()

	// Size estimates.
	est := &memo.Estimator{Md: md}
	joinRows := est.JoinRows(s.canonRels(), s.allConjuncts())
	if s.grouped {
		s.rows = est.GroupRows(joinRows, s.groupCols)
	} else {
		s.rows = joinRows
	}
	s.bytes = s.rows * est.RowWidth(s.outCols)
	return s, nil
}

// canonRels returns the canonical consumer's relation IDs.
func (s *spec) canonRels() []logical.RelID {
	var out []logical.RelID
	for rid := 0; rid < s.m.Md.NumRels(); rid++ {
		if s.canon.Rels.Contains(logical.RelID(rid)) {
			out = append(out, logical.RelID(rid))
		}
	}
	return out
}

// simplifiedConjuncts drops a consumer's conjuncts implied by the
// intersected join predicate (step 2) and translates the rest into the
// canonical space.
func (s *spec) simplifiedConjuncts(g *memo.Group, cm *colMapper) ([]*scalar.Expr, error) {
	var kept []*scalar.Expr
	for _, c := range g.Conjuncts {
		if a, b, ok := c.IsColEqCol(); ok {
			ka, okA := cm.baseOf(a)
			kb, okB := cm.baseOf(b)
			if okA && okB && s.equiv.equal(ka, kb) {
				continue // implied by the CSE join predicate
			}
		}
		mapped, err := translate(c, cm, s.canonCM)
		if err != nil {
			return nil, err
		}
		kept = append(kept, mapped)
	}
	return kept, nil
}

// addAgg registers a consumer aggregate in the CSE (deduplicating by the
// translated fingerprint) and returns the CSE output column holding it.
func (s *spec) addAgg(a logical.AggDef, cm *colMapper) (scalar.ColID, error) {
	arg, err := translate(a.Arg, cm, s.canonCM)
	if err != nil {
		return 0, err
	}
	def := logical.AggDef{Kind: a.Kind, Arg: arg}
	fp := def.Fingerprint()
	if out, ok := s.aggOutFor[fp]; ok {
		return out, nil
	}
	var out scalar.ColID
	if cm == s.canonCM {
		// The canonical consumer's own output column doubles as the CSE's.
		out = a.Out
	} else {
		out = s.m.Md.AddSynthesized("cse_"+def.String(), logical.InferKind(s.m.Md, scalar.Agg(a.Kind, arg)))
	}
	def.Out = out
	s.aggs = append(s.aggs, def)
	s.aggOutFor[fp] = out
	return out, nil
}

func mapCol(c scalar.ColID, from, to *colMapper) (scalar.ColID, error) {
	k, ok := from.baseOf(c)
	if !ok {
		return 0, fmt.Errorf("column @%d is synthesized and cannot be mapped", c)
	}
	mapped, ok := to.colFor(k)
	if !ok {
		return 0, fmt.Errorf("no instance of %q in target space", k.table)
	}
	return mapped, nil
}

// substituteFor builds the §5.1 view-matching substitute for one consumer:
// residual filter + optional re-aggregation + renames into consumer space.
func (s *spec) substituteFor(cid memo.GroupID) (*opt.Substitute, error) {
	g := s.m.Group(cid)
	cm := s.mappers[cid]
	sub := &opt.Substitute{}

	res := s.residuals[cid]
	if !scalar.IsTrue(res) {
		// If the covering predicate is exactly this consumer's residual,
		// the spool already applied it.
		if s.covering == nil || res.Fingerprint() != s.covering.Fingerprint() {
			sub.Residual = res
		}
	}

	if s.grouped {
		// Map the consumer's grouping columns into CSE space.
		mappedGroup := make([]scalar.ColID, len(g.GroupCols))
		var mappedSet scalar.ColSet
		for i, gc := range g.GroupCols {
			mc, err := mapCol(gc, cm, s.canonCM)
			if err != nil {
				return nil, err
			}
			mappedGroup[i] = mc
			mappedSet.Add(mc)
		}
		cseSet := scalar.MakeColSet(s.groupCols...)
		needReagg := !mappedSet.Equals(cseSet)

		// Locate each consumer aggregate's CSE output column.
		cseOut := make([]scalar.ColID, len(g.Aggs))
		for i, a := range g.Aggs {
			arg, err := translate(a.Arg, cm, s.canonCM)
			if err != nil {
				return nil, err
			}
			fp := logical.AggDef{Kind: a.Kind, Arg: arg}.Fingerprint()
			out, ok := s.aggOutFor[fp]
			if !ok {
				return nil, fmt.Errorf("consumer aggregate %s not covered by CSE", a)
			}
			cseOut[i] = out
		}

		if needReagg {
			sub.GroupCols = scalar.SortColIDs(append([]scalar.ColID(nil), mappedGroup...))
			sub.Aggs = make([]logical.AggDef, len(g.Aggs))
			for i, a := range g.Aggs {
				sub.Aggs[i] = memo.CombineAgg(a, cseOut[i])
			}
		}

		// Renames: consumer output = group cols (consumer space) + agg outs.
		for _, oc := range g.OutCols {
			var from scalar.ColID
			if i := indexOfCol(g.GroupCols, oc); i >= 0 {
				// Re-aggregation, if any, groups by CSE-space columns too.
				from = mappedGroup[i]
			} else if i := indexOfAggOut(g.Aggs, oc); i >= 0 {
				if needReagg {
					from = oc // re-aggregation already produced consumer's column
				} else {
					from = cseOut[i]
				}
			} else {
				return nil, fmt.Errorf("consumer output @%d is neither group column nor aggregate", oc)
			}
			sub.Renames = append(sub.Renames, opt.Rename{From: from, To: oc})
		}
		return sub, nil
	}

	// Ungrouped consumer: rename every output column.
	for _, oc := range g.OutCols {
		from, err := mapCol(oc, cm, s.canonCM)
		if err != nil {
			return nil, err
		}
		sub.Renames = append(sub.Renames, opt.Rename{From: from, To: oc})
	}
	return sub, nil
}

func indexOfCol(cols []scalar.ColID, c scalar.ColID) int {
	for i, x := range cols {
		if x == c {
			return i
		}
	}
	return -1
}

func indexOfAggOut(aggs []logical.AggDef, c scalar.ColID) int {
	for i, a := range aggs {
		if a.Out == c {
			return i
		}
	}
	return -1
}

// allConjuncts returns the CSE's full predicate set: intersected equijoins,
// shared conjuncts, and the OR'd covering predicate.
func (s *spec) allConjuncts() []*scalar.Expr {
	conj := append([]*scalar.Expr(nil), s.joinConjuncts...)
	conj = append(conj, s.shared...)
	if s.covering != nil {
		conj = append(conj, s.covering)
	}
	return conj
}

// block converts the spec into a logical block, ready for memo insertion.
func (s *spec) block() *logical.Block {
	blk := &logical.Block{
		Rels:      append([]logical.RelID(nil), s.canonRels()...),
		Conjuncts: s.allConjuncts(),
		HasGroup:  s.grouped,
		GroupCols: s.groupCols,
		Aggs:      s.aggs,
	}
	for _, c := range s.outCols {
		blk.Projections = append(blk.Projections, logical.Projection{
			Expr: scalar.Col(c),
			Name: s.m.Md.ColName(c),
		})
	}
	return blk
}

// label renders a SQL-ish description of the candidate.
func (s *spec) label() string {
	var sb strings.Builder
	if s.grouped {
		sb.WriteString("γ")
	}
	sb.WriteString("(")
	sb.WriteString(strings.Join(s.tables, " ⋈ "))
	sb.WriteString(")")
	namer := scalar.FuncNamer(func(c scalar.ColID) string { return s.m.Md.ColName(c) })
	var preds []string
	for _, c := range s.shared {
		preds = append(preds, scalar.Format(c, namer))
	}
	if s.covering != nil {
		preds = append(preds, "("+scalar.Format(s.covering, namer)+")")
	}
	if len(preds) > 0 {
		sb.WriteString(" where ")
		sb.WriteString(strings.Join(preds, " AND "))
	}
	// Render the grouping structure: two candidates over the same join and
	// predicates but different grouping columns or aggregates are distinct,
	// and the label is their identity in traces and EXPLAIN output.
	if s.grouped {
		if len(s.groupCols) > 0 {
			var cols []string
			for _, c := range s.groupCols {
				cols = append(cols, s.m.Md.ColName(c))
			}
			sb.WriteString(" group by ")
			sb.WriteString(strings.Join(cols, ", "))
		}
		if len(s.aggs) > 0 {
			var aggs []string
			for _, a := range s.aggs {
				arg := "*"
				if a.Arg != nil {
					arg = scalar.Format(a.Arg, namer)
				}
				aggs = append(aggs, fmt.Sprintf("%s(%s)", a.Kind, arg))
			}
			sb.WriteString(" agg ")
			sb.WriteString(strings.Join(aggs, ", "))
		}
	}
	fmt.Fprintf(&sb, " [%d consumers]", len(s.consumers))
	return sb.String()
}

// cacheKey renders a batch-independent fingerprint of the normalized spec:
// the signature [G; T] plus the canonicalized join, shared, and covering
// predicates, grouping columns, aggregates, and the positional output
// layout. Columns are named in base space (table.ordinal) instead of
// batch-local column IDs, and aggregate outputs by their aggregate's
// base-space rendering, so two batches that construct the same CSE — even
// with different statement counts or orderings — produce the same key. That
// is what lets a cross-batch result cache recognize a spool. Order-sensitive
// components (the output layout) are kept in order, because cached rows are
// positional; order-free components are sorted. An empty key means some
// referenced column has no base-space name, so the spec must not be cached.
func (s *spec) cacheKey() string {
	ok := true
	var aggName func(c scalar.ColID) (string, bool)
	baseName := func(c scalar.ColID) (string, bool) {
		if k, isBase := s.canonCM.baseOf(c); isBase {
			return fmt.Sprintf("%s.%d", k.table, k.ord), true
		}
		return aggName(c)
	}
	namer := scalar.FuncNamer(func(c scalar.ColID) string {
		n, nameOK := baseName(c)
		if !nameOK {
			ok = false
		}
		return n
	})
	aggName = func(c scalar.ColID) (string, bool) {
		for _, a := range s.aggs {
			if a.Out == c {
				if a.Arg == nil {
					return a.Kind.String() + "(*)", true
				}
				return fmt.Sprintf("%s(%s)", a.Kind, scalar.Format(a.Arg, namer)), true
			}
		}
		return "?", false
	}
	sorted := func(exprs []*scalar.Expr) []string {
		out := make([]string, len(exprs))
		for i, e := range exprs {
			out[i] = scalar.Format(e, namer)
		}
		sort.Strings(out)
		return out
	}

	var sb strings.Builder
	if s.grouped {
		sb.WriteString("G")
	}
	fmt.Fprintf(&sb, "[%s]", strings.Join(s.tables, ","))
	fmt.Fprintf(&sb, "|join:%s", strings.Join(sorted(s.joinConjuncts), "&"))
	fmt.Fprintf(&sb, "|shared:%s", strings.Join(sorted(s.shared), "&"))
	switch {
	case s.covering == nil:
		sb.WriteString("|cover:true")
	case s.covering.Op == scalar.OpOr:
		// Disjunct order follows consumer order, which is batch-dependent;
		// sort so reordered batches still hit.
		fmt.Fprintf(&sb, "|cover:%s", strings.Join(sorted(s.covering.Args), " OR "))
	default:
		fmt.Fprintf(&sb, "|cover:%s", scalar.Format(s.covering, namer))
	}
	if s.grouped {
		groups := make([]string, len(s.groupCols))
		for i, c := range s.groupCols {
			var nameOK bool
			groups[i], nameOK = baseName(c)
			if !nameOK {
				ok = false
			}
		}
		sort.Strings(groups)
		fmt.Fprintf(&sb, "|group:%s", strings.Join(groups, ","))
	}
	// Output layout stays positional: a hit serves raw cached rows.
	outs := make([]string, len(s.outCols))
	for i, c := range s.outCols {
		var nameOK bool
		outs[i], nameOK = baseName(c)
		if !nameOK {
			ok = false
		}
	}
	fmt.Fprintf(&sb, "|out:%s", strings.Join(outs, ","))
	if !ok {
		return ""
	}
	return sb.String()
}

// sortedConsumers returns the consumers in deterministic order.
func (s *spec) sortedConsumers() []memo.GroupID {
	out := append([]memo.GroupID(nil), s.consumers...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
