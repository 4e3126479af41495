package opt

import (
	"strings"
	"testing"

	"repro/internal/scalar"
)

func spoolScan(id int) *Plan { return &Plan{Op: PSpoolScan, SpoolID: id} }

func cseOn(id int, plan *Plan) *CSEPlan { return &CSEPlan{ID: id, Plan: plan} }

func TestCheckSpoolsAcceptsStackedDAG(t *testing.T) {
	// Statement 1 uses spools 1 and 3; statement 2 uses spool 3.
	// Spool 3 is stacked on spools 1 and 2; spools 1 and 2 are base.
	stmt1 := &Plan{Op: PRoot, Children: []*Plan{
		{Op: PHashJoin, Children: []*Plan{spoolScan(1), spoolScan(3)}},
	}}
	stmt2 := &Plan{Op: PRoot, Children: []*Plan{spoolScan(3)}}
	res := &Result{
		Root: &Plan{Op: PSeq, Children: []*Plan{stmt1, stmt2}},
		CSEs: map[int]*CSEPlan{
			1: cseOn(1, &Plan{Op: PScan}),
			2: cseOn(2, &Plan{Op: PScan}),
			3: cseOn(3, &Plan{Op: PNLJoin, Children: []*Plan{spoolScan(1), spoolScan(2)}}),
		},
	}
	if err := res.CheckSpools(); err != nil {
		t.Fatal(err)
	}
	if got := len(res.StatementPlans()); got != 2 {
		t.Errorf("statements = %d, want 2", got)
	}
}

func TestCheckSpoolsRejectsCycle(t *testing.T) {
	res := &Result{
		Root: &Plan{Op: PRoot, Children: []*Plan{spoolScan(1)}},
		CSEs: map[int]*CSEPlan{
			1: cseOn(1, spoolScan(2)),
			2: cseOn(2, &Plan{Op: PFilter, Children: []*Plan{spoolScan(3)}}),
			3: cseOn(3, spoolScan(1)),
		},
	}
	err := res.CheckSpools()
	if err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("err = %v, want cyclic spool dependency", err)
	}
}

func TestCheckSpoolsRejectsSubquery(t *testing.T) {
	sub := &scalar.Expr{Op: scalar.OpSubquery}
	res := &Result{
		Root: &Plan{Op: PRoot, Children: []*Plan{spoolScan(2)}},
		CSEs: map[int]*CSEPlan{
			1: cseOn(1, &Plan{Op: PScan}),
			2: cseOn(2, &Plan{Op: PFilter, Filter: sub, Children: []*Plan{spoolScan(1)}}),
		},
	}
	err := res.CheckSpools()
	if err == nil || !strings.Contains(err.Error(), "CSE 2") || !strings.Contains(err.Error(), "scalar subquery") {
		t.Fatalf("err = %v, want CSE 2's scalar subquery rejected", err)
	}
}

func TestCheckSpoolsIgnoresUnknownDependency(t *testing.T) {
	// Spool 1 scans spool 99, which has no plan; execution reports the
	// missing plan when spool 1 is read.
	res := &Result{
		Root: &Plan{Op: PRoot, Children: []*Plan{spoolScan(1)}},
		CSEs: map[int]*CSEPlan{1: cseOn(1, spoolScan(99))},
	}
	if err := res.CheckSpools(); err != nil {
		t.Fatal(err)
	}
}

func TestReferencesSubquery(t *testing.T) {
	sub := &scalar.Expr{Op: scalar.OpSubquery}
	cases := []struct {
		name string
		plan *Plan
		want bool
	}{
		{"nil", nil, false},
		{"plain scan", &Plan{Op: PScan}, false},
		{"filter", &Plan{Op: PScan, Filter: sub}, true},
		{"nested arg", &Plan{Op: PFilter, Filter: &scalar.Expr{Op: scalar.OpAnd, Args: []*scalar.Expr{sub}}}, true},
		{"child", &Plan{Op: PFilter, Children: []*Plan{{Op: PScan, Filter: sub}}}, true},
	}
	for _, c := range cases {
		if got := c.plan.ReferencesSubquery(); got != c.want {
			t.Errorf("%s: ReferencesSubquery = %v, want %v", c.name, got, c.want)
		}
	}
}
