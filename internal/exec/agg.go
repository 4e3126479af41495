package exec

import (
	"fmt"
	"math"

	"repro/internal/opt"
	"repro/internal/scalar"
	"repro/internal/sqltypes"
)

// floatSum accumulates float64 values exactly as a Shewchuk expansion of
// non-overlapping partials (the algorithm behind Python's math.fsum). The
// expansion represents the running sum with no rounding error, so the final
// rounded result is independent of accumulation order — which is what lets
// per-worker partial aggregates merge into bit-identical results no matter
// how the input was partitioned.
type floatSum struct {
	partials []float64
}

func (f *floatSum) add(x float64) {
	i := 0
	for _, y := range f.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			f.partials[i] = lo
			i++
		}
		x = hi
	}
	f.partials = append(f.partials[:i], x)
}

// merge folds another expansion into this one; both remain exact, so the
// merged sum equals accumulating every original input in any order.
func (f *floatSum) merge(o *floatSum) {
	for _, p := range o.partials {
		f.add(p)
	}
}

// round returns the correctly rounded value of the expansion: sum the
// partials from most to least significant, then resolve the half-ulp case
// against the next partial's sign (as math.fsum does).
func (f *floatSum) round() float64 {
	n := len(f.partials)
	if n == 0 {
		return 0
	}
	n--
	hi := f.partials[n]
	var lo float64
	for n > 0 {
		x := hi
		n--
		y := f.partials[n]
		hi = x + y
		yr := hi - x
		lo = y - yr
		if lo != 0 {
			break
		}
	}
	if n > 0 && ((lo < 0 && f.partials[n-1] < 0) || (lo > 0 && f.partials[n-1] > 0)) {
		y := lo * 2.0
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}

// aggState accumulates one aggregate for one group. Every state is
// mergeable: two states built over disjoint row sets combine into exactly
// the state a single pass over the union would produce (integer sums are
// exact, float sums use an exact expansion, min/max/count are trivially
// order-independent), so parallel partial aggregation is deterministic.
type aggState struct {
	kind  scalar.AggKind
	count int64
	sumI  int64    // exact sum of integer inputs
	sumF  floatSum // exact sum of float inputs
	isInt bool     // no float input seen yet
	first bool     // no non-null input seen yet (min/max)
	minD  sqltypes.Datum
	maxD  sqltypes.Datum
}

func newAggState(kind scalar.AggKind) *aggState {
	return &aggState{kind: kind, isInt: true, first: true}
}

func (s *aggState) add(d sqltypes.Datum) {
	if s.kind == scalar.AggCountStar {
		s.count++
		return
	}
	if d.IsNull() {
		return
	}
	s.count++
	switch s.kind {
	case scalar.AggSum, scalar.AggSum0:
		if d.Kind() == sqltypes.KindInt {
			s.sumI += d.Int()
		} else {
			s.isInt = false
			s.sumF.add(d.Float())
		}
	case scalar.AggMin:
		if s.first || sqltypes.Compare(d, s.minD) < 0 {
			s.minD = d
		}
	case scalar.AggMax:
		if s.first || sqltypes.Compare(d, s.maxD) > 0 {
			s.maxD = d
		}
	}
	s.first = false
}

// merge folds another state for the same aggregate into this one. o must
// cover rows that come after s's rows in input order (min/max ties keep the
// earlier datum, matching the sequential first-seen rule).
func (s *aggState) merge(o *aggState) {
	s.count += o.count
	switch s.kind {
	case scalar.AggSum, scalar.AggSum0:
		s.sumI += o.sumI
		s.sumF.merge(&o.sumF)
		s.isInt = s.isInt && o.isInt
	case scalar.AggMin:
		if !o.first && (s.first || sqltypes.Compare(o.minD, s.minD) < 0) {
			s.minD = o.minD
		}
	case scalar.AggMax:
		if !o.first && (s.first || sqltypes.Compare(o.maxD, s.maxD) > 0) {
			s.maxD = o.maxD
		}
	}
	s.first = s.first && o.first
}

func (s *aggState) result() sqltypes.Datum {
	switch s.kind {
	case scalar.AggCount, scalar.AggCountStar:
		return sqltypes.NewInt(s.count)
	case scalar.AggSum, scalar.AggSum0:
		if s.count == 0 {
			if s.kind == scalar.AggSum0 {
				return sqltypes.NewInt(0)
			}
			return sqltypes.Null
		}
		if s.isInt {
			return sqltypes.NewInt(s.sumI)
		}
		// Fold the exact integer part into the expansion as a split pair so
		// the mixed-kind sum stays exact too.
		total := s.sumF
		if s.sumI != 0 {
			hi := float64(s.sumI)
			total.add(hi)
			if lo := s.sumI - int64(hi); lo != 0 {
				total.add(float64(lo))
			}
		}
		return sqltypes.NewFloat(total.round())
	case scalar.AggMin:
		if s.count == 0 {
			return sqltypes.Null
		}
		return s.minD
	case scalar.AggMax:
		if s.count == 0 {
			return sqltypes.Null
		}
		return s.maxD
	default:
		return sqltypes.Null
	}
}

// groupAcc is one group's key and accumulator set; hash caches the group
// key's hash so partial merges never rehash.
type groupAcc struct {
	hash   uint64
	key    sqltypes.Row
	states []*aggState
}

// aggSpec is the compiled shape of a hash aggregation, shared (read-only) by
// every worker.
type aggSpec struct {
	groupIdx []int
	keyIdx   []int
	aggs     []logicalAgg
	hasher   *sqltypes.Hasher
}

// logicalAgg pairs an aggregate's kind with its compiled argument.
type logicalAgg struct {
	kind scalar.AggKind
	arg  scalar.EvalFn // nil for COUNT(*)
}

// aggPartial accumulates groups over a contiguous slice of the input,
// preserving first-occurrence order so block-ordered merging reproduces the
// sequential group order exactly.
type aggPartial struct {
	spec   *aggSpec
	groups map[uint64][]*groupAcc
	order  []*groupAcc
}

func newAggPartial(spec *aggSpec) *aggPartial {
	return &aggPartial{spec: spec, groups: make(map[uint64][]*groupAcc)}
}

// absorb accumulates a contiguous block of rows. hashes, when non-nil, holds
// the precomputed group-key hash of each row (column-at-a-time extraction);
// nil means hash row-wise.
func (ap *aggPartial) absorb(rows []sqltypes.Row, hashes []uint64) {
	spec := ap.spec
	for ri, r := range rows {
		var h uint64
		if hashes != nil {
			h = hashes[ri]
		} else {
			h = spec.hasher.HashRow(r, spec.groupIdx)
		}
		var acc *groupAcc
		for _, g := range ap.groups[h] {
			if keysEqual(r, spec.groupIdx, g.key, spec.keyIdx) {
				acc = g
				break
			}
		}
		if acc == nil {
			key := make(sqltypes.Row, len(spec.groupIdx))
			for i, gi := range spec.groupIdx {
				key[i] = r[gi]
			}
			acc = &groupAcc{hash: h, key: key, states: make([]*aggState, len(spec.aggs))}
			for i, a := range spec.aggs {
				acc.states[i] = newAggState(a.kind)
			}
			ap.groups[h] = append(ap.groups[h], acc)
			ap.order = append(ap.order, acc)
		}
		for i, a := range spec.aggs {
			if a.arg == nil {
				acc.states[i].add(sqltypes.Null)
			} else {
				acc.states[i].add(a.arg(r))
			}
		}
	}
}

// mergeFrom folds a later block's partial into this one. Groups first seen
// in the later block are appended in their order, so the combined order is
// global first-occurrence order.
func (ap *aggPartial) mergeFrom(o *aggPartial) {
	for _, oa := range o.order {
		var acc *groupAcc
		for _, g := range ap.groups[oa.hash] {
			if keysEqual(oa.key, ap.spec.keyIdx, g.key, ap.spec.keyIdx) {
				acc = g
				break
			}
		}
		if acc == nil {
			ap.groups[oa.hash] = append(ap.groups[oa.hash], oa)
			ap.order = append(ap.order, oa)
			continue
		}
		for i := range acc.states {
			acc.states[i].merge(oa.states[i])
		}
	}
}

func (c *Context) execHashAgg(p *opt.Plan) ([]sqltypes.Row, error) {
	layout := layoutOf(c.sourceCols(p.Children[0]))
	groupIdx, err := colPositions(p.GroupCols, layout, "grouping column")
	if err != nil {
		return nil, err
	}
	aggs := make([]logicalAgg, len(p.Aggs))
	for i, a := range p.Aggs {
		aggs[i].kind = a.Kind
		if a.Kind == scalar.AggCountStar {
			continue
		}
		fn, err := c.compile(a.Arg, layout)
		if err != nil {
			return nil, fmt.Errorf("compiling aggregate %s: %w", a, err)
		}
		aggs[i].arg = fn
	}
	in, err := c.execSource(p.Children[0])
	if err != nil {
		return nil, err
	}
	spec := &aggSpec{
		groupIdx: groupIdx,
		keyIdx:   seqIdx(len(groupIdx)),
		aggs:     aggs,
		hasher:   sqltypes.NewHasher(),
	}

	// Column-at-a-time group hashing when the input is backed by a columnar
	// shadow: one typed pass per grouping column replaces the per-row kind
	// switches, and the resulting hashes are identical to HashRow's.
	var hashes []uint64
	if cd := c.sourceView(p.Children[0], in); cd != nil {
		hashes = colHashRows(spec.hasher, cd, in, groupIdx)
		c.stats.recordColHash()
	}

	// Aggregate contiguous chunk-aligned blocks in parallel, then merge the
	// partials in block order: exact states make the values independent of
	// the partitioning, and ordered merging keeps the sequential
	// first-occurrence group order.
	bounds := c.blockBounds(len(in))
	partials := make([]*aggPartial, len(bounds)-1)
	err = c.runParts(p, len(partials), func(part int) error {
		ap := newAggPartial(spec)
		var bh []uint64
		if hashes != nil {
			bh = hashes[bounds[part]:bounds[part+1]]
		}
		ap.absorb(in[bounds[part]:bounds[part+1]], bh)
		partials[part] = ap
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total *aggPartial
	if len(partials) > 0 {
		total = partials[0]
		for _, ap := range partials[1:] {
			total.mergeFrom(ap)
		}
	} else {
		total = newAggPartial(spec)
	}
	order := total.order

	// Scalar aggregation over empty input yields one row.
	if len(order) == 0 && len(p.GroupCols) == 0 {
		acc := &groupAcc{states: make([]*aggState, len(p.Aggs))}
		for i, a := range p.Aggs {
			acc.states[i] = newAggState(a.Kind)
		}
		order = append(order, acc)
	}

	var arena sqltypes.RowArena
	out := make([]sqltypes.Row, len(order))
	for ri, acc := range order {
		row := arena.NewRow(len(p.GroupCols) + len(p.Aggs))
		copy(row, acc.key)
		for i, st := range acc.states {
			row[len(p.GroupCols)+i] = st.result()
		}
		out[ri] = row
	}
	return out, nil
}

// seqIdx returns [0,1,...,n-1] for comparing a key row against itself.
func seqIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
