package exec

import (
	"fmt"

	"repro/internal/opt"
	"repro/internal/scalar"
	"repro/internal/sqltypes"
)

// execMergeJoin joins two inputs sorted on their key columns. Rows with a
// NULL key never match. Duplicate keys on both sides produce the full cross
// of the two equal-key blocks.
func (c *Context) execMergeJoin(p *opt.Plan) ([]sqltypes.Row, error) {
	leftLayout := layoutOf(c.sourceCols(p.Children[0]))
	rightLayout := layoutOf(c.sourceCols(p.Children[1]))
	lk, err := colPositions(p.LeftKeys, leftLayout, "merge join left key")
	if err != nil {
		return nil, err
	}
	rk, err := colPositions(p.RightKeys, rightLayout, "merge join right key")
	if err != nil {
		return nil, err
	}
	leftIdx, err := colPositions(p.Children[0].Cols, leftLayout, "merge join left column")
	if err != nil {
		return nil, err
	}
	rightIdx, err := colPositions(p.Children[1].Cols, rightLayout, "merge join right column")
	if err != nil {
		return nil, err
	}
	var residual scalar.EvalFn
	if p.Filter != nil {
		residual, err = c.compile(p.Filter, layoutOf(p.Cols))
		if err != nil {
			return nil, err
		}
	}
	left, err := c.execSource(p.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := c.execSource(p.Children[1])
	if err != nil {
		return nil, err
	}

	cmpKeys := func(a sqltypes.Row, b sqltypes.Row) int {
		for i := range lk {
			if cmp := sqltypes.Compare(a[lk[i]], b[rk[i]]); cmp != 0 {
				return cmp
			}
		}
		return 0
	}

	// The merge itself is inherently sequential (one cursor per side), but
	// output rows are carved from an arena and written directly: one
	// allocation per emitted row, reused when the residual rejects.
	var out []sqltypes.Row
	var arena sqltypes.RowArena
	var combined sqltypes.Row
	leftWidth := len(p.Children[0].Cols)
	width := leftWidth + len(p.Children[1].Cols)
	li, ri := 0, 0
	for li < len(left) && ri < len(right) {
		if rowHasNullAt(left[li], lk) {
			li++
			continue
		}
		if rowHasNullAt(right[ri], rk) {
			ri++
			continue
		}
		cmp := cmpKeys(left[li], right[ri])
		switch {
		case cmp < 0:
			li++
		case cmp > 0:
			ri++
		default:
			// Collect the equal-key block on the right, then emit the cross
			// with every equal-key row on the left.
			rEnd := ri
			for rEnd < len(right) && !rowHasNullAt(right[rEnd], rk) && cmpKeys(left[li], right[rEnd]) == 0 {
				rEnd++
			}
			lEnd := li
			for lEnd < len(left) && !rowHasNullAt(left[lEnd], lk) && cmpKeys(left[lEnd], right[ri]) == 0 {
				lEnd++
			}
			for a := li; a < lEnd; a++ {
				for b := ri; b < rEnd; b++ {
					if combined == nil {
						combined = arena.NewRow(width)
					}
					for i, pos := range leftIdx {
						combined[i] = left[a][pos]
					}
					for i, pos := range rightIdx {
						combined[leftWidth+i] = right[b][pos]
					}
					if residual != nil {
						d := residual(combined)
						if d.IsNull() || !d.Bool() {
							continue
						}
					}
					out = append(out, combined)
					combined = nil
				}
			}
			li, ri = lEnd, rEnd
		}
	}
	return out, nil
}

// execStreamAgg aggregates an input sorted on the grouping columns: a group
// closes when any grouping value changes, so only one accumulator set is
// live at a time.
func (c *Context) execStreamAgg(p *opt.Plan) ([]sqltypes.Row, error) {
	layout := layoutOf(c.sourceCols(p.Children[0]))
	groupIdx, err := colPositions(p.GroupCols, layout, "grouping column")
	if err != nil {
		return nil, err
	}
	argFns := make([]scalar.EvalFn, len(p.Aggs))
	for i, a := range p.Aggs {
		if a.Kind == scalar.AggCountStar {
			continue
		}
		fn, err := c.compile(a.Arg, layout)
		if err != nil {
			return nil, fmt.Errorf("compiling aggregate %s: %w", a, err)
		}
		argFns[i] = fn
	}
	in, err := c.execSource(p.Children[0])
	if err != nil {
		return nil, err
	}

	var out []sqltypes.Row
	var key sqltypes.Row
	var states []*aggState
	flush := func() {
		if states == nil {
			return
		}
		row := make(sqltypes.Row, len(groupIdx)+len(p.Aggs))
		copy(row, key)
		for i, st := range states {
			row[len(groupIdx)+i] = st.result()
		}
		out = append(out, row)
		states = nil
	}
	sameKey := func(r sqltypes.Row) bool {
		for i, gi := range groupIdx {
			if sqltypes.Compare(r[gi], key[i]) != 0 {
				return false
			}
		}
		return true
	}
	for _, r := range in {
		if states == nil || !sameKey(r) {
			flush()
			key = make(sqltypes.Row, len(groupIdx))
			for i, gi := range groupIdx {
				key[i] = r[gi]
			}
			states = make([]*aggState, len(p.Aggs))
			for i, a := range p.Aggs {
				states[i] = newAggState(a.Kind)
			}
		}
		for i := range p.Aggs {
			if p.Aggs[i].Kind == scalar.AggCountStar {
				states[i].add(sqltypes.Null)
			} else {
				states[i].add(argFns[i](r))
			}
		}
	}
	flush()
	return out, nil
}
