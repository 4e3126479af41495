package exec

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/logical"
	"repro/internal/opt"
	"repro/internal/scalar"
	"repro/internal/sqltypes"
)

// One data path for pass-through operators: Scan, IndexScan, Filter and Sort
// are implemented once, by execSource, and never project. They hand back the
// storage's own full-width rows (filtered, range-restricted or reordered), and
// operators that only *read* their input through compiled column positions —
// joins, aggregations, projections, the statement's output projection —
// compile against sourceCols, the layout those rows actually carry. Sharing
// is safe because operators never mutate input rows (the same model spool
// reads rely on). Materializing operators emit rows in their plan's declared
// p.Cols layout, and exec re-projects a pass-through node to p.Cols once, so
// spool work tables, the cross-batch cache and statement results are laid
// out as declared.
//
// EXPLAIN ANALYZE runs this same data path: execSource records the actuals of
// every node it runs, once per execution, so the reported times are those of
// production.

// sourceCols reports the column layout execSource(p) will return, without
// executing anything, so consumers can compile expressions before running
// the subtree. It must stay in lockstep with execSource's dispatch.
func (c *Context) sourceCols(p *opt.Plan) []scalar.ColID {
	switch p.Op {
	case opt.PScan, opt.PIndexScan:
		return fullColIDs(c.Md.Rel(p.Rel))
	case opt.PFilter, opt.PSort:
		return c.sourceCols(p.Children[0])
	default:
		return p.Cols
	}
}

// execSource executes a plan subtree for a consumer that reads rows through
// the sourceCols(p) layout, recording the node's actuals under Analyze. See
// the package comment above.
func (c *Context) execSource(p *opt.Plan) ([]sqltypes.Row, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	switch p.Op {
	case opt.PScan:
		return c.observe(p, c.scanSource)
	case opt.PIndexScan:
		return c.observe(p, c.indexScanSource)
	case opt.PFilter:
		return c.observe(p, c.filterSource)
	case opt.PSort:
		return c.observe(p, c.sortSource)
	default:
		return c.observe(p, c.execNode)
	}
}

// reproject lays out rows returned by execSource(p) in p's declared p.Cols
// layout in one morsel pass. It is skipped when the source layout already is
// p.Cols, so shared storage rows pass through.
func (c *Context) reproject(p *opt.Plan, rows []sqltypes.Row) ([]sqltypes.Row, error) {
	src := c.sourceCols(p)
	if slices.Equal(src, p.Cols) {
		return rows, nil
	}
	idx, err := colPositions(p.Cols, layoutOf(src), "output column")
	if err != nil {
		return nil, err
	}
	return c.runMorsels(p, len(rows), func(arena *sqltypes.RowArena, lo, hi int, out *[]sqltypes.Row) error {
		*out = append(*out, make([]sqltypes.Row, 0, hi-lo)...)
		for _, r := range rows[lo:hi] {
			row := arena.NewRow(len(idx))
			for i, pos := range idx {
				row[i] = r[pos]
			}
			*out = append(*out, row)
		}
		return nil
	})
}

// filterSource is execSource's filter: the input rows the predicate keeps,
// shared with the input.
func (c *Context) filterSource(p *opt.Plan) ([]sqltypes.Row, error) {
	// Compile before running the child: expression errors surface without
	// paying for the subtree.
	layout := layoutOf(c.sourceCols(p))
	fn, err := c.compile(p.Filter, layout)
	if err != nil {
		return nil, err
	}
	in, err := c.execSource(p.Children[0])
	if err != nil {
		return nil, err
	}
	// When the child handed back storage-backed rows (shared scan or spool
	// work table), filter on their columnar shadow instead.
	if cd := c.sourceView(p.Children[0], in); cd != nil {
		if cs := c.buildColSelection(c.substituteSubqueries(p.Filter), cd, layout); cs != nil {
			return c.selectShared(p, in, cs)
		}
	}
	return c.filterShared(p, in, fn)
}

// sortSource is execSource's sort: the input rows ascending by the sort
// columns (NULLs first, matching sqltypes.Compare).
func (c *Context) sortSource(p *opt.Plan) ([]sqltypes.Row, error) {
	keys, err := colPositions(p.SortCols, layoutOf(c.sourceCols(p)), "sort column")
	if err != nil {
		return nil, err
	}
	in, err := c.execSource(p.Children[0])
	if err != nil {
		return nil, err
	}
	return sortRows(in, keys), nil
}

// scanSource is execSource's scan leaf: the base table's own rows, filtered
// but never projected.
func (c *Context) scanSource(p *opt.Plan) ([]sqltypes.Row, error) {
	rel := c.Md.Rel(p.Rel)
	tab, err := c.Store.Table(rel.Tab.Name)
	if err != nil {
		return nil, err
	}
	if p.Filter == nil {
		return tab.Rows, nil
	}
	if cs := c.buildColSelection(c.substituteSubqueries(p.Filter), c.tableView(tab), layoutOf(fullColIDs(rel))); cs != nil {
		return c.selectShared(p, tab.Rows, cs)
	}
	filter, err := c.compile(p.Filter, layoutOf(fullColIDs(rel)))
	if err != nil {
		return nil, fmt.Errorf("scan filter on %s: %w", rel.Tab.Name, err)
	}
	return c.filterShared(p, tab.Rows, filter)
}

// indexScanSource is execSource's index-scan leaf: the qualifying index
// range in index order, filtered, as shared full-width rows.
func (c *Context) indexScanSource(p *opt.Plan) ([]sqltypes.Row, error) {
	rel := c.Md.Rel(p.Rel)
	tab, err := c.Store.Table(rel.Tab.Name)
	if err != nil {
		return nil, err
	}
	perm := tab.Index(p.IndexOrd)
	if perm == nil {
		return nil, fmt.Errorf("no index on %s.%s", rel.Tab.Name, rel.Tab.Cols[p.IndexOrd].Name)
	}
	var filter scalar.EvalFn
	var cs *colSelection
	if p.Filter != nil {
		cs = c.buildColSelection(c.substituteSubqueries(p.Filter), c.tableView(tab), layoutOf(fullColIDs(rel)))
		if cs == nil {
			filter, err = c.compile(p.Filter, layoutOf(fullColIDs(rel)))
			if err != nil {
				return nil, err
			}
		}
	}
	span := indexSpan(tab.Rows, perm, p.IndexOrd, p.Bounds)
	return c.runMorsels(p, len(span), func(_ *sqltypes.RowArena, lo, hi int, out *[]sqltypes.Row) error {
		if cs != nil {
			// The span holds row numbers into the table, which is exactly the
			// index space of its columnar shadow: refine it as a selection.
			sel := make([]int32, hi-lo)
			for k, ri := range span[lo:hi] {
				sel[k] = int32(ri)
			}
			for _, ri := range cs.refineSel(tab.Rows, sel) {
				*out = append(*out, tab.Rows[ri])
			}
			return nil
		}
		for _, ri := range span[lo:hi] {
			r := tab.Rows[ri]
			if filter != nil {
				d := filter(r)
				if d.IsNull() || !d.Bool() {
					continue
				}
			}
			*out = append(*out, r)
		}
		return nil
	})
}

// filterShared keeps the rows passing fn, sharing them with the input.
func (c *Context) filterShared(p *opt.Plan, in []sqltypes.Row, fn scalar.EvalFn) ([]sqltypes.Row, error) {
	return c.runMorsels(p, len(in), func(_ *sqltypes.RowArena, lo, hi int, out *[]sqltypes.Row) error {
		for _, r := range in[lo:hi] {
			d := fn(r)
			if !d.IsNull() && d.Bool() {
				*out = append(*out, r)
			}
		}
		return nil
	})
}

// colPositions resolves each column to its position in the layout.
func colPositions(cols []scalar.ColID, layout map[scalar.ColID]int, what string) ([]int, error) {
	out := make([]int, len(cols))
	for i, col := range cols {
		pos, ok := layout[col]
		if !ok {
			return nil, fmt.Errorf("%s @%d missing from input", what, col)
		}
		out[i] = pos
	}
	return out, nil
}

// sortRows stably sorts a copy of the row slice (never the shared backing
// rows of a table or spool) ascending by the key positions, NULLs first.
func sortRows(in []sqltypes.Row, keys []int) []sqltypes.Row {
	out := make([]sqltypes.Row, len(in))
	copy(out, in)
	sort.SliceStable(out, func(a, b int) bool {
		for _, k := range keys {
			if cmp := sqltypes.Compare(out[a][k], out[b][k]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return out
}

// fullColIDs is the column layout of a table instance's stored rows.
func fullColIDs(rel *logical.RelInfo) []scalar.ColID {
	full := make([]scalar.ColID, len(rel.Tab.Cols))
	for i := range rel.Tab.Cols {
		full[i] = rel.ColID(i)
	}
	return full
}
