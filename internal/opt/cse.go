package opt

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/scalar"
)

// Rename maps a CSE output column to the consumer-space column it stands in
// for in the substitute's final projection.
type Rename struct {
	From, To scalar.ColID
}

// Substitute describes how one consumer computes its result from a
// candidate's work table: scan the spool, apply the residual (compensation)
// predicate, optionally re-aggregate, and rename columns into the consumer's
// column space. This plays the role of the view-matching substitute (§5.1).
type Substitute struct {
	Residual  *scalar.Expr     // over CSE output columns; nil when none
	GroupCols []scalar.ColID   // CSE-space re-grouping columns; nil = no re-aggregation
	Aggs      []logical.AggDef // re-aggregation (args over CSE columns, Out in consumer space)
	Renames   []Rename
}

// Candidate is a candidate covering subexpression: a spool over ExprGroup
// whose result can replace each consumer group via its substitute.
type Candidate struct {
	ID        int
	ExprGroup memo.GroupID
	SpoolCols []scalar.ColID // canonical work-table layout (= ExprGroup.OutCols)

	Consumers []memo.GroupID
	Subs      map[memo.GroupID]*Substitute

	// Stmts is the set of statement indices containing consumers.
	Stmts map[int]bool

	// ChargeGroup is where the initial cost is added (the common dominator
	// of all consumers — the paper's least common ancestor). Set by
	// PrepareCSE; forced to the batch root for stack-used candidates.
	ChargeGroup memo.GroupID

	// StackUsed marks candidates consumed by another candidate's expression
	// (§5.5 stacked CSEs).
	StackUsed bool

	// Estimated spool size.
	Rows, Bytes float64

	// Signature info for containment ordering.
	Tables  []string
	Grouped bool

	Label string

	// SpecKey is the batch-independent canonical fingerprint of the
	// normalized spec, used as the cross-batch result-cache key. Empty when
	// the candidate is not safely keyable (see core spec.cacheKey).
	SpecKey string
}

// WriteCost is C_W for the candidate's work table.
func (c *Candidate) WriteCost() float64 { return SpoolWriteCost(c.Rows, c.Bytes) }

// ReadBase is the base C_R: one sequential scan of the work table.
func (c *Candidate) ReadBase() float64 { return SpoolReadCost(c.Rows, c.Bytes) }

// Alt is one plan alternative tracked during CSE reoptimization: its cost,
// the signature of its not-yet-charged candidate uses, and the expression
// plans chosen for candidates already charged below.
type Alt struct {
	Plan    *Plan
	Cost    float64
	Uses    usage
	Choices map[int]*Plan
}

// combo is a partial combination of child alternatives while an expression's
// children are folded left to right: the alternative picked for the latest
// child, linked to the combination over the children before it, with the
// cost and usage signature of the whole chain. Extending a combination by one
// child is one addition and one signature merge, whatever its length. The
// zero combo is the empty combination.
type combo struct {
	prev *combo
	alt  *Alt
	cost float64
	uses usage
}

// alts returns the n chained alternatives in child order.
func (c *combo) alts(n int) []*Alt {
	out := make([]*Alt, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = c.alt
		c = c.prev
	}
	return out
}

// foldCache is the history of the batch root's fold over its statements:
// the combinations reached after each child, under each set of enabled
// candidates that affects the children so far.
type foldCache struct {
	// first is, by candidate ordinal, the index of the first child the
	// candidate affects (the number of children when it affects none).
	first []int
	// after[j] maps the key of the enabled candidates with first <= j to the
	// combinations over children 0..j.
	after []map[string][]combo
	// bytes is roughly what the cached combinations hold.
	bytes int
}

// comboBytes is the size of a combo without its usage signature.
const comboBytes = 48

// maxFoldCacheBytes bounds the fold history kept between reoptimizations:
// about 300 reoptimizations of a 48-statement batch with 32 candidates. A
// history that outgrew it is dropped, and the next reoptimization folds every
// statement again; plans do not depend on it. Unbounded, the history of a
// 2,000-statement batch reached 3 GB and cost the collector more time than
// the longer prefixes saved.
const maxFoldCacheBytes = 64 << 20

func mergeChoices(dst, src map[int]*Plan) map[int]*Plan {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[int]*Plan, len(src))
	}
	for id, p := range src {
		dst[id] = p
	}
	return dst
}

// PrepareCSE installs the candidate set for subsequent OptimizeWithCSEs
// calls: it computes dominators, each candidate's charge group, and the
// ancestor ("affected") closure of each candidate's consumers.
func (o *Optimizer) PrepareCSE(cands []*Candidate) {
	o.Cands = cands
	o.doms = memo.NewDominators(o.M, o.M.RootGroup)
	o.affected = make(map[int]map[memo.GroupID]bool, len(cands))
	o.ord = make(map[int]int, len(cands))
	o.ReleaseCaches()

	for ord, c := range cands {
		o.ord[c.ID] = ord
		switch {
		case o.ChargeAtRoot, c.StackUsed:
			c.ChargeGroup = o.M.RootGroup
		default:
			c.ChargeGroup = o.doms.CommonDominator(c.Consumers)
		}
		// Upward closure of consumers through parent links; the charge
		// group and everything between is affected too.
		aff := make(map[memo.GroupID]bool)
		var up func(memo.GroupID)
		up = func(g memo.GroupID) {
			if aff[g] {
				return
			}
			aff[g] = true
			for _, p := range o.M.Group(g).Parents {
				up(p)
			}
		}
		for _, g := range c.Consumers {
			up(g)
		}
		// Ensure the path from root is considered affected so charging
		// always happens (parents cover this already, but the root must be
		// included even if no consumer links straight up to it).
		aff[o.M.RootGroup] = true
		aff[c.ChargeGroup] = true
		o.affected[c.ID] = aff
	}
}

// Doms exposes the dominator analysis (used by core for competing/
// independent classification).
func (o *Optimizer) Doms() *memo.Dominators { return o.doms }

// ReleaseCaches frees the optimization history built during CSE
// reoptimization: the per-group alternative caches and the fold caches. The
// final plan keeps only the nodes it references.
func (o *Optimizer) ReleaseCaches() {
	o.altCache = make(map[memo.GroupID]map[string][]*Alt)
	o.rootFold = nil
}

// enabledAt filters the enabled candidate set to those affecting group g.
// This implements §5.4's history reuse: a group's alternatives depend only
// on the candidates with consumers below it, so results are cached by that
// reduced set and shared across enabled supersets.
func (o *Optimizer) enabledAt(g memo.GroupID, enabled []int) []int {
	var out []int
	for _, id := range enabled {
		if o.affected[id][g] {
			out = append(out, id)
		}
	}
	return out
}

func setKeyOf(ids []int) string {
	if len(ids) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, id := range ids {
		sb.WriteString(strconv.Itoa(id))
		sb.WriteByte(',')
	}
	return sb.String()
}

// OptimizeWithCSEs reoptimizes the batch with the given candidate set
// enabled (candidates may be used but are not forced). It returns the best
// plan found, which may use any subset of the enabled candidates.
func (o *Optimizer) OptimizeWithCSEs(enabled []int) (*Result, []int, error) {
	if o.doms == nil {
		return nil, nil, fmt.Errorf("PrepareCSE must be called before OptimizeWithCSEs")
	}
	if o.NoHistoryReuse {
		o.ReleaseCaches()
	}
	// Sort a copy: callers hold on to (and trace) their enabled slices, and
	// reordering them in place here would corrupt that bookkeeping.
	enabled = append([]int(nil), enabled...)
	sort.Ints(enabled)
	alts, err := o.alts(o.M.RootGroup, enabled)
	if err != nil {
		return nil, nil, err
	}
	var best *Alt
	for _, a := range alts {
		if a.Uses.hasSingleUse() {
			continue
		}
		if best == nil || a.Cost < best.Cost {
			best = a
		}
	}
	if best == nil {
		return nil, nil, fmt.Errorf("no valid plan with CSE set %v", enabled)
	}
	// Leftover uses at the root (n >= 2 whose charge group is the root were
	// charged there already; anything remaining is a bug).
	if best.Uses != noUses {
		return nil, nil, fmt.Errorf("internal: uncharged CSE uses %s at batch root", o.describe(best.Uses))
	}

	res := &Result{Root: best.Plan, Cost: best.Cost, CSEs: map[int]*CSEPlan{}}
	// Attach plans for every spool actually read (including spools read by
	// other CSE plans).
	used := map[int]bool{}
	best.Plan.UsedSpoolIDs(used)
	for changed := true; changed; {
		changed = false
		for id := range used {
			p, ok := best.Choices[id]
			if !ok {
				return nil, nil, fmt.Errorf("internal: no expression plan chosen for CSE %d", id)
			}
			more := map[int]bool{}
			p.UsedSpoolIDs(more)
			for mid := range more {
				if !used[mid] {
					used[mid] = true
					changed = true
				}
			}
		}
	}
	var usedIDs []int
	for id := range used {
		usedIDs = append(usedIDs, id)
	}
	sort.Ints(usedIDs)
	for _, id := range usedIDs {
		c := o.candByID(id)
		res.CSEs[id] = &CSEPlan{
			ID:      id,
			Plan:    best.Choices[id],
			Cols:    c.SpoolCols,
			Rows:    c.Rows,
			Label:   c.Label,
			SpecKey: c.SpecKey,
		}
	}
	return res, usedIDs, nil
}

func (o *Optimizer) candByID(id int) *Candidate { return o.Cands[o.ord[id]] }

// alts computes the pruned alternative set for a group under the enabled
// candidates.
func (o *Optimizer) alts(id memo.GroupID, enabled []int) ([]*Alt, error) {
	local := o.enabledAt(id, enabled)
	if len(local) == 0 {
		w, err := o.winner(id)
		if err != nil {
			return nil, err
		}
		return []*Alt{{Plan: w.Plan, Cost: w.Lower}}, nil
	}
	key := setKeyOf(local)
	if cached, ok := o.altCache[id][key]; ok {
		o.Work.AltCacheHits++
		return cached, nil
	}
	o.Work.GroupsRecosted++
	g := o.M.Group(id)
	var out []*Alt

	// Expression-based alternatives: combine children alternative sets.
	for _, e := range g.Exprs {
		combos, err := o.childCombos(e, enabled)
		if err != nil {
			return nil, err
		}
		for i := range combos {
			c := &combos[i]
			chain := c.alts(len(e.Children))
			plans := make([]*Plan, len(chain))
			for k, a := range chain {
				plans[k] = a.Plan
			}
			p, err := o.planExpr(e, g, plans)
			if err != nil {
				return nil, err
			}
			alt := &Alt{Plan: p, Uses: c.uses}
			// Cost: the op's own cost plus children alternative costs (the
			// plan's Cost field uses child plan costs, which for alts with
			// adjustments may differ — recompute as plan op delta).
			opCost := p.Cost
			for _, cp := range plans {
				opCost -= cp.Cost
			}
			total := opCost
			for _, a := range chain {
				total += a.Cost
				alt.Choices = mergeChoices(alt.Choices, a.Choices)
			}
			alt.Cost = total
			out = append(out, alt)
		}
	}

	// Substitute alternatives: this group is a consumer of an enabled
	// candidate.
	for _, cid := range local {
		c := o.candByID(cid)
		sub, ok := c.Subs[id]
		if !ok {
			continue
		}
		p, cost := o.buildSubstitute(c, g, sub)
		out = append(out, &Alt{
			Plan: p,
			Cost: cost,
			Uses: oneUse(o.ord[cid], len(o.Cands)),
		})
	}

	// Charge initial costs for candidates whose charge point is here. Wider
	// candidates are charged first: charging a wide candidate merges its
	// expression plan's stacked usages into the alternative, so a narrower
	// stacked candidate sees its full consumer count when its own turn
	// comes (§5.5).
	var toCharge []*Candidate
	for _, cid := range local {
		c := o.candByID(cid)
		if c.ChargeGroup == id {
			toCharge = append(toCharge, c)
		}
	}
	sort.Slice(toCharge, func(i, j int) bool {
		if len(toCharge[i].Tables) != len(toCharge[j].Tables) {
			return len(toCharge[i].Tables) > len(toCharge[j].Tables)
		}
		return toCharge[i].ID < toCharge[j].ID
	})
	for _, c := range toCharge {
		var err error
		out, err = o.chargeCandidate(out, c, enabled)
		if err != nil {
			return nil, err
		}
	}

	out = o.pruneAlts(out)
	if o.altCache[id] == nil {
		o.altCache[id] = make(map[string][]*Alt)
	}
	o.altCache[id][key] = out
	return out, nil
}

// childCombos folds the expression's children left to right into the pruned
// cross product of their alternative sets. The batch root's fold over its
// statements resumes from the longest prefix of children already folded
// under the same enabled candidates, so toggling one candidate refolds from
// the first statement it affects.
func (o *Optimizer) childCombos(e *memo.Expr, enabled []int) ([]combo, error) {
	combos := []combo{{}}
	start := 0
	var fc *foldCache
	var keys []string
	if e.Op == memo.OpSeq {
		if o.rootFold != nil && o.rootFold.bytes > o.foldBound {
			// The history outgrew its bound: drop it. This call folds every
			// statement again and starts a new one.
			o.rootFold = nil
		}
		fc = o.rootFoldCache(e)
		keys = o.prefixKeys(fc, enabled)
		for j := len(keys) - 1; j >= 0; j-- {
			if cached, ok := fc.after[j][keys[j]]; ok {
				combos, start = cached, j+1
				break
			}
		}
		o.Work.RootChildrenRefolded += len(e.Children) - start
	}
	for j := start; j < len(e.Children); j++ {
		childAlts, err := o.alts(e.Children[j], enabled)
		if err != nil {
			return nil, err
		}
		combos = o.extendCombos(combos, childAlts)
		if fc != nil {
			fc.after[j][keys[j]] = combos
			fc.bytes += len(combos) * (comboBytes + len(o.Cands)*countBytes)
		}
	}
	return combos, nil
}

// rootFoldCache returns the fold cache of the batch root's expression,
// creating it on first use.
func (o *Optimizer) rootFoldCache(e *memo.Expr) *foldCache {
	if o.rootFold != nil {
		return o.rootFold
	}
	n := len(e.Children)
	fc := &foldCache{first: make([]int, len(o.Cands)), after: make([]map[string][]combo, n)}
	for ord, c := range o.Cands {
		fc.first[ord] = n
		for j, cg := range e.Children {
			if o.affected[c.ID][cg] {
				fc.first[ord] = j
				break
			}
		}
	}
	for j := range fc.after {
		fc.after[j] = make(map[string][]combo)
	}
	o.rootFold = fc
	return fc
}

// prefixKeys returns, for each child index j, the key of the enabled
// candidates that affect children 0..j — all the fold state after child j
// depends on, by the same argument as enabledAt. The ids are rendered in
// order of first affected child, so every key is a prefix of one string.
func (o *Optimizer) prefixKeys(fc *foldCache, enabled []int) []string {
	ids := append([]int(nil), enabled...)
	sort.SliceStable(ids, func(a, b int) bool { return fc.first[o.ord[ids[a]]] < fc.first[o.ord[ids[b]]] })
	var sb strings.Builder
	cut := make([]int, len(fc.after))
	next := 0
	for j := range cut {
		for ; next < len(ids) && fc.first[o.ord[ids[next]]] <= j; next++ {
			sb.WriteString(strconv.Itoa(ids[next]))
			sb.WriteByte(',')
		}
		cut[j] = sb.Len()
	}
	keys := make([]string, len(cut))
	for j, n := range cut {
		keys[j] = sb.String()[:n]
	}
	return keys
}

// extension names one member of the cross product of the combinations so
// far and the next child's alternatives. It holds no pointer, so the prune
// step sorts a flat array the garbage collector never looks at.
type extension struct {
	cost       float64
	combo, alt int32
}

// extendCombos extends every combination by every alternative of the next
// child, combination-major. Once the product outgrows 4×AltCap it is pruned
// to the cheapest extension per usage signature, capped at 4×AltCap; the
// signature of an extension is formed only when that walk reaches it.
func (o *Optimizer) extendCombos(combos []combo, childAlts []*Alt) []combo {
	exts := o.extBuf[:0]
	for i := range combos {
		for j, a := range childAlts {
			exts = append(exts, extension{cost: combos[i].cost + a.Cost, combo: int32(i), alt: int32(j)})
		}
	}
	o.extBuf = exts
	build := func(x extension) combo {
		prev, alt := &combos[x.combo], childAlts[x.alt]
		return combo{prev: prev, alt: alt, cost: x.cost, uses: prev.uses.add(alt.Uses)}
	}
	limit := 4 * o.AltCap
	if len(exts) <= limit {
		out := make([]combo, len(exts))
		for i, x := range exts {
			out[i] = build(x)
		}
		return out
	}
	slices.SortFunc(exts, func(a, b extension) int { return cmp.Compare(a.cost, b.cost) })
	if o.seenUses == nil {
		o.seenUses = make(map[usage]bool, limit)
	}
	seen := o.seenUses
	clear(seen)
	out := make([]combo, 0, limit+1)
	for _, x := range exts {
		c := build(x)
		if seen[c.uses] {
			continue
		}
		seen[c.uses] = true
		out = append(out, c)
		if len(out) >= limit {
			break
		}
	}
	// Always retain the cheapest CSE-free combination (mirroring pruneAlts).
	// Under candidate explosion the cap above can otherwise fill with
	// CSE-using combos only; chargeCandidate then discards single-use
	// alternatives and a group can end up with no viable alternative at all,
	// failing the whole optimization with "no valid plan".
	if !seen[noUses] {
		for _, x := range exts {
			if combos[x.combo].uses == noUses && childAlts[x.alt].Uses == noUses {
				out = append(out, build(x))
				break
			}
		}
	}
	return out
}

// pruneAlts keeps the cheapest alternative per usage signature, capped, and
// always retains the cheapest CSE-free alternative.
func (o *Optimizer) pruneAlts(alts []*Alt) []*Alt {
	sort.Slice(alts, func(i, j int) bool { return alts[i].Cost < alts[j].Cost })
	seen := make(map[usage]bool)
	var out []*Alt
	var clean *Alt
	for _, a := range alts {
		if a.Uses == noUses && clean == nil {
			clean = a
		}
		if seen[a.Uses] {
			continue
		}
		seen[a.Uses] = true
		if len(out) < o.AltCap {
			out = append(out, a)
		}
	}
	if clean != nil {
		found := false
		for _, a := range out {
			if a == clean {
				found = true
				break
			}
		}
		if !found {
			out = append(out, clean)
		}
	}
	return out
}

// buildSubstitute constructs the physical substitute plan for a consumer:
// SpoolScan → [Filter residual] → [HashAgg re-aggregation] → Project renames.
func (o *Optimizer) buildSubstitute(c *Candidate, consumer *memo.Group, sub *Substitute) (*Plan, float64) {
	est := &memo.Estimator{Md: o.M.Md}
	p := &Plan{
		Op:      PSpoolScan,
		SpoolID: c.ID,
		Cols:    c.SpoolCols,
		Rows:    c.Rows,
		Cost:    c.ReadBase(),
	}
	rows := c.Rows
	if sub.Residual != nil {
		rows *= est.Selectivity(sub.Residual)
		if rows < 1 {
			rows = 1
		}
		p = &Plan{
			Op:       PFilter,
			Children: []*Plan{p},
			Filter:   sub.Residual,
			Cols:     p.Cols,
			Rows:     rows,
			Cost:     p.Cost + filterCost(p.Rows),
		}
	}
	if sub.GroupCols != nil || len(sub.Aggs) > 0 {
		outRows := consumer.Rows
		cols := append([]scalar.ColID(nil), sub.GroupCols...)
		for _, a := range sub.Aggs {
			cols = append(cols, a.Out)
		}
		p = &Plan{
			Op:        PHashAgg,
			Children:  []*Plan{p},
			GroupCols: sub.GroupCols,
			Aggs:      sub.Aggs,
			Cols:      cols,
			Rows:      outRows,
			Cost:      p.Cost + hashAggCost(p.Rows, outRows),
		}
		rows = outRows
	}
	if len(sub.Renames) > 0 {
		projs := make([]logical.Projection, len(sub.Renames))
		cols := make([]scalar.ColID, len(sub.Renames))
		for i, rn := range sub.Renames {
			projs[i] = logical.Projection{Expr: scalar.Col(rn.From), Name: o.M.Md.ColName(rn.To)}
			cols[i] = rn.To
		}
		p = &Plan{
			Op:          PProject,
			Children:    []*Plan{p},
			Projections: projs,
			Cols:        cols,
			Rows:        rows,
			Cost:        p.Cost + projectCost(rows),
		}
	}
	return p, p.Cost
}

// chargeOption is one way to account a candidate's initial cost: the chosen
// expression plan, its cost plus the write cost, and any stacked candidate
// usages the expression plan itself carries.
type chargeOption struct {
	initCost  float64
	extraUses usage
	choices   map[int]*Plan
	exprPlan  *Plan
}

// chargeOptions computes up to two ways to evaluate the candidate's
// expression under the enabled set: the overall cheapest, and the cheapest
// that uses no other candidate (so stacked usage never traps the optimizer).
func (o *Optimizer) chargeOptions(c *Candidate, enabled []int) ([]chargeOption, error) {
	exprAlts, err := o.alts(c.ExprGroup, enabled)
	if err != nil {
		return nil, err
	}
	var best, clean *Alt
	for _, a := range exprAlts {
		if best == nil || a.Cost < best.Cost {
			best = a
		}
		if a.Uses == noUses && len(a.Choices) == 0 && (clean == nil || a.Cost < clean.Cost) {
			clean = a
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no expression plan for candidate %d", c.ID)
	}
	mk := func(a *Alt) chargeOption {
		return chargeOption{
			initCost:  a.Cost + c.WriteCost() + o.normalizeCost(a.Plan, c),
			extraUses: a.Uses,
			choices:   a.Choices,
			exprPlan:  o.normalizePlan(a.Plan, c),
		}
	}
	opts := []chargeOption{mk(best)}
	if clean != nil && clean != best {
		opts = append(opts, mk(clean))
	}
	return opts, nil
}

// normalizePlan wraps the expression plan with a projection to the
// candidate's canonical spool layout when the plan's layout differs.
func (o *Optimizer) normalizePlan(p *Plan, c *Candidate) *Plan {
	if layoutEqual(p.Cols, c.SpoolCols) {
		return p
	}
	projs := make([]logical.Projection, len(c.SpoolCols))
	for i, col := range c.SpoolCols {
		projs[i] = logical.Projection{Expr: scalar.Col(col), Name: o.M.Md.ColName(col)}
	}
	return &Plan{
		Op:          PProject,
		Children:    []*Plan{p},
		Projections: projs,
		Cols:        append([]scalar.ColID(nil), c.SpoolCols...),
		Rows:        p.Rows,
		Cost:        p.Cost + projectCost(p.Rows),
	}
}

func (o *Optimizer) normalizeCost(p *Plan, c *Candidate) float64 {
	if layoutEqual(p.Cols, c.SpoolCols) {
		return 0
	}
	return projectCost(p.Rows)
}

func layoutEqual(a, b []scalar.ColID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chargeCandidate applies the paper's §5.2 rules at the candidate's charge
// point: alternatives with exactly one consumer are discarded; alternatives
// with two or more are charged the initial cost once (for each way of
// evaluating the expression), and the candidate's usage entry is settled.
func (o *Optimizer) chargeCandidate(alts []*Alt, c *Candidate, enabled []int) ([]*Alt, error) {
	var opts []chargeOption
	var out []*Alt
	ord := o.ord[c.ID]
	for _, a := range alts {
		n := a.Uses.count(ord)
		switch {
		case n == 0:
			out = append(out, a)
		case n == 1:
			// Discard: a spool written and read once is never worthwhile.
		default:
			if opts == nil {
				var err error
				opts, err = o.chargeOptions(c, enabled)
				if err != nil {
					return nil, err
				}
			}
			rest := a.Uses.without(ord)
			for _, opt := range opts {
				choices := make(map[int]*Plan, len(a.Choices)+len(opt.choices)+1)
				mergeChoices(choices, a.Choices)
				mergeChoices(choices, opt.choices)
				choices[c.ID] = opt.exprPlan
				out = append(out, &Alt{
					Plan:    a.Plan,
					Cost:    a.Cost + opt.initCost,
					Uses:    rest.add(opt.extraUses),
					Choices: choices,
				})
			}
		}
	}
	return out, nil
}
