package opt

import (
	"fmt"
	"strings"

	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/scalar"
)

// PhysOp enumerates physical operators.
type PhysOp uint8

// Physical operators.
const (
	PScan PhysOp = iota
	PIndexScan
	PFilter
	PHashJoin
	PNLJoin
	PMergeJoin
	PLookupJoin
	PHashAgg
	PStreamAgg
	PSort
	PProject
	PRoot
	PSeq
	PSpoolScan
)

func (op PhysOp) String() string {
	switch op {
	case PScan:
		return "Scan"
	case PIndexScan:
		return "IndexScan"
	case PFilter:
		return "Filter"
	case PHashJoin:
		return "HashJoin"
	case PNLJoin:
		return "NestedLoopJoin"
	case PMergeJoin:
		return "MergeJoin"
	case PLookupJoin:
		return "LookupJoin"
	case PHashAgg:
		return "HashAggregate"
	case PStreamAgg:
		return "StreamAggregate"
	case PSort:
		return "Sort"
	case PProject:
		return "Project"
	case PRoot:
		return "Output"
	case PSeq:
		return "Batch"
	case PSpoolScan:
		return "SpoolScan"
	default:
		return fmt.Sprintf("PhysOp(%d)", uint8(op))
	}
}

// Plan is a physical plan node. Cost is cumulative (children included, plus
// CSE accounting adjustments at charge points). Cols is the output layout as
// metadata column IDs; PRoot and PSeq produce positional output instead.
type Plan struct {
	Op       PhysOp
	Children []*Plan
	Cols     []scalar.ColID
	Rows     float64
	Cost     float64

	// PScan / PIndexScan payload.
	Rel logical.RelID

	// PIndexScan payload: the indexed column's ordinal and range bounds.
	// PLookupJoin reuses Rel and IndexOrd for the inner table and its
	// indexed key column.
	IndexOrd int
	Bounds   Bounds

	// PLookupJoin payload: the outer key column, the inner scan's local
	// filter (applied per fetched row), and the inner output layout.
	LookupKey   scalar.ColID
	InnerFilter *scalar.Expr
	InnerCols   []scalar.ColID

	// Filter predicate: local filter for PScan, residual join condition for
	// joins, filter for PFilter.
	Filter *scalar.Expr

	// Provided is the ascending sort order the node's output is guaranteed
	// to have (a physical property; empty = unordered).
	Provided []scalar.ColID

	// PSort payload: the enforced ordering.
	SortCols []scalar.ColID

	// PHashJoin / PMergeJoin payload: equi-key columns, parallel slices.
	LeftKeys, RightKeys []scalar.ColID

	// PHashAgg payload.
	GroupCols []scalar.ColID
	Aggs      []logical.AggDef

	// PProject payload: each projection produces the column ID in Cols at
	// the same position.
	Projections []logical.Projection

	// PRoot payload. Children[0] is the main input; Children[1:] are scalar
	// subquery plans, evaluated first, whose metadata indices are
	// SubqueryIdxs.
	OrderBy      []logical.OrderKey
	Limit        int
	OutputNames  []string
	SubqueryIdxs []int

	// PSpoolScan payload.
	SpoolID int
}

// CSEPlan describes a chosen candidate CSE in a final plan: how to compute
// the spooled expression and the layout of the work table.
type CSEPlan struct {
	ID   int
	Plan *Plan
	Cols []scalar.ColID
	Rows float64
	// SQL-ish description for EXPLAIN output.
	Label string
	// SpecKey is the candidate's batch-independent cache key ("" = not
	// cacheable across batches).
	SpecKey string
}

// SourceTables walks the plan and collects, into the given set, the lowercase
// names of every base table it scans, recursing through spool scans via the
// cses map. The set is what a result cache must version-check: a write to any
// of these tables invalidates rows derived from the plan.
func (p *Plan) SourceTables(md *logical.Metadata, cses map[int]*CSEPlan, into map[string]bool) {
	if p == nil {
		return
	}
	switch p.Op {
	case PScan, PIndexScan, PLookupJoin:
		into[strings.ToLower(md.Rel(p.Rel).Tab.Name)] = true
	case PSpoolScan:
		if c := cses[p.SpoolID]; c != nil {
			c.Plan.SourceTables(md, cses, into)
		}
	}
	for _, c := range p.Children {
		c.SourceTables(md, cses, into)
	}
}

// Result is a complete optimized batch plan.
type Result struct {
	Root *Plan
	// CSEs maps spool IDs used anywhere in the plan (including by other
	// CSEs) to their plans.
	CSEs map[int]*CSEPlan
	// Cost is the estimated total cost, the paper's "estimated cost" rows.
	Cost float64
}

// UsedSpoolIDs walks the plan and returns the spool IDs it scans.
func (p *Plan) UsedSpoolIDs(into map[int]bool) {
	if p == nil {
		return
	}
	if p.Op == PSpoolScan {
		into[p.SpoolID] = true
	}
	for _, c := range p.Children {
		c.UsedSpoolIDs(into)
	}
}

// Format renders the plan tree for EXPLAIN.
func (p *Plan) Format(md *logical.Metadata) string {
	return p.FormatAnnotated(md, nil)
}

// FormatAnnotated renders the plan tree with ann's text appended to each
// node line, after the optimizer's estimates. The hook lets callers that
// hold runtime actuals (which this package cannot depend on) line them up
// with the estimates for EXPLAIN ANALYZE; a nil ann renders plain EXPLAIN.
func (p *Plan) FormatAnnotated(md *logical.Metadata, ann func(*Plan) string) string {
	var sb strings.Builder
	p.format(md, &sb, 0, ann)
	return sb.String()
}

func (p *Plan) format(md *logical.Metadata, sb *strings.Builder, indent int, ann func(*Plan) string) {
	pad := strings.Repeat("  ", indent)
	fmt.Fprintf(sb, "%s%s", pad, p.Op)
	namer := scalar.FuncNamer(func(c scalar.ColID) string { return md.ColName(c) })
	switch p.Op {
	case PScan:
		fmt.Fprintf(sb, " %s", md.Rel(p.Rel).Alias)
		if p.Filter != nil {
			fmt.Fprintf(sb, " filter=(%s)", scalar.Format(p.Filter, namer))
		}
	case PIndexScan:
		rel := md.Rel(p.Rel)
		fmt.Fprintf(sb, " %s on %s", rel.Alias, rel.Tab.Cols[p.IndexOrd].Name)
		if !p.Bounds.Lo.IsNull() {
			fmt.Fprintf(sb, " lo=%s", p.Bounds.Lo.SQLLiteral())
		}
		if !p.Bounds.Hi.IsNull() {
			fmt.Fprintf(sb, " hi=%s", p.Bounds.Hi.SQLLiteral())
		}
		if p.Filter != nil {
			fmt.Fprintf(sb, " filter=(%s)", scalar.Format(p.Filter, namer))
		}
	case PSpoolScan:
		fmt.Fprintf(sb, " CSE%d", p.SpoolID)
	case PFilter:
		fmt.Fprintf(sb, " (%s)", scalar.Format(p.Filter, namer))
	case PHashJoin, PMergeJoin:
		var keys []string
		for i := range p.LeftKeys {
			keys = append(keys, fmt.Sprintf("%s=%s", md.ColName(p.LeftKeys[i]), md.ColName(p.RightKeys[i])))
		}
		fmt.Fprintf(sb, " on %s", strings.Join(keys, " and "))
		if p.Filter != nil {
			fmt.Fprintf(sb, " residual=(%s)", scalar.Format(p.Filter, namer))
		}
	case PNLJoin:
		if p.Filter != nil {
			fmt.Fprintf(sb, " on (%s)", scalar.Format(p.Filter, namer))
		}
	case PLookupJoin:
		rel := md.Rel(p.Rel)
		fmt.Fprintf(sb, " into %s on %s = %s", rel.Alias, md.ColName(p.LookupKey), rel.Tab.Cols[p.IndexOrd].Name)
		if p.InnerFilter != nil {
			fmt.Fprintf(sb, " inner-filter=(%s)", scalar.Format(p.InnerFilter, namer))
		}
		if p.Filter != nil {
			fmt.Fprintf(sb, " residual=(%s)", scalar.Format(p.Filter, namer))
		}
	case PSort:
		var keys []string
		for _, c := range p.SortCols {
			keys = append(keys, md.ColName(c))
		}
		fmt.Fprintf(sb, " by [%s]", strings.Join(keys, ","))
	case PHashAgg, PStreamAgg:
		var gcols []string
		for _, g := range p.GroupCols {
			gcols = append(gcols, md.ColName(g))
		}
		fmt.Fprintf(sb, " by [%s]", strings.Join(gcols, ","))
		var aggs []string
		for _, a := range p.Aggs {
			aggs = append(aggs, a.String())
		}
		fmt.Fprintf(sb, " aggs [%s]", strings.Join(aggs, ","))
	case PProject, PRoot:
		var projs []string
		for _, pr := range p.Projections {
			projs = append(projs, fmt.Sprintf("%s as %s", scalar.Format(pr.Expr, namer), pr.Name))
		}
		if len(projs) > 0 {
			fmt.Fprintf(sb, " [%s]", strings.Join(projs, ", "))
		}
	}
	fmt.Fprintf(sb, "  (rows=%.0f cost=%.2f)", p.Rows, p.Cost)
	if ann != nil {
		if extra := ann(p); extra != "" {
			sb.WriteString("  ")
			sb.WriteString(extra)
		}
	}
	sb.WriteByte('\n')
	for _, c := range p.Children {
		c.format(md, sb, indent+1, ann)
	}
}

// Format renders the full result including CSE plans.
func (r *Result) Format(md *logical.Metadata) string {
	return r.FormatAnnotated(md, nil)
}

// FormatAnnotated renders the full result including CSE plans, threading the
// per-node annotation hook through every tree (see Plan.FormatAnnotated).
func (r *Result) FormatAnnotated(md *logical.Metadata, ann func(*Plan) string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total cost: %.2f\n", r.Cost)
	sb.WriteString(r.Root.FormatAnnotated(md, ann))
	ids := make([]int, 0, len(r.CSEs))
	for id := range r.CSEs {
		ids = append(ids, id)
	}
	sortInts(ids)
	for _, id := range ids {
		c := r.CSEs[id]
		fmt.Fprintf(&sb, "CSE%d: %s (rows=%.0f)\n", id, c.Label, c.Rows)
		sb.WriteString(c.Plan.FormatAnnotated(md, ann))
	}
	return sb.String()
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// colSetOf converts a layout slice to a set.
func colSetOf(cols []scalar.ColID) scalar.ColSet {
	return scalar.MakeColSet(cols...)
}

// groupOutCols returns a group's layout.
func groupOutCols(g *memo.Group) []scalar.ColID { return g.OutCols }
