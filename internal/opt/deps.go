package opt

import (
	"fmt"
	"sort"
)

// StatementPlans flattens the batch root into per-statement plans.
func (r *Result) StatementPlans() []*Plan {
	if r.Root != nil && r.Root.Op == PSeq {
		return r.Root.Children
	}
	return []*Plan{r.Root}
}

// CheckSpools verifies that every spool of the batch can be materialized by
// its first reader: no spool plan references a scalar-subquery value (its
// rows would then depend on which statement read it first), and the
// spool-on-spool dependencies form no cycle (the first reader of a cycle
// would wait on itself forever). Dependencies on spool IDs without a plan
// are ignored here; execution reports them.
func (r *Result) CheckSpools() error {
	ids := make([]int, 0, len(r.CSEs))
	for id := range r.CSEs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if r.CSEs[id].Plan.ReferencesSubquery() {
			return fmt.Errorf("CSE %d: spool plan references a scalar subquery", id)
		}
	}
	// Depth-first search; a spool met again while on the stack closes a
	// cycle.
	const onStack, done = 1, 2
	state := make(map[int]int, len(ids))
	var visit func(id int) error
	visit = func(id int) error {
		switch state[id] {
		case onStack:
			return fmt.Errorf("cyclic spool dependency through CSE %d", id)
		case done:
			return nil
		}
		state[id] = onStack
		used := make(map[int]bool)
		r.CSEs[id].Plan.UsedSpoolIDs(used)
		for dep := range used {
			if _, known := r.CSEs[dep]; known {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[id] = done
		return nil
	}
	for _, id := range ids {
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}

// ReferencesSubquery reports whether any scalar expression in the plan tree
// contains an unresolved scalar-subquery reference.
func (p *Plan) ReferencesSubquery() bool {
	if p == nil {
		return false
	}
	if p.Filter.HasSubquery() || p.InnerFilter.HasSubquery() {
		return true
	}
	for _, pr := range p.Projections {
		if pr.Expr.HasSubquery() {
			return true
		}
	}
	for _, a := range p.Aggs {
		if a.Arg.HasSubquery() {
			return true
		}
	}
	for _, c := range p.Children {
		if c.ReferencesSubquery() {
			return true
		}
	}
	return false
}
