package exec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/opt"
	"repro/internal/scalar"
	"repro/internal/storage"
)

func bareContext(cses map[int]*opt.CSEPlan) *Context {
	res := &opt.Result{Root: &opt.Plan{Op: opt.PRoot}, CSEs: cses}
	return newContext(context.Background(), res, logical.NewMetadata(), storage.NewStore(), newCollector(1, 1, false), Options{Parallelism: 1})
}

func TestSpoolErrors(t *testing.T) {
	c := bareContext(map[int]*opt.CSEPlan{})
	if _, err := c.spool(&opt.Plan{Op: opt.PSpoolScan, SpoolID: 7}); err == nil || !strings.Contains(err.Error(), "no plan for CSE") {
		t.Errorf("missing CSE error = %v", err)
	}
}

// TestParallelRunRejectsCyclicSpools: a batch whose spools cannot be
// materialized at first read — a spool cycle, or a spool plan that needs a
// statement's scalar-subquery value — is rejected before any statement runs,
// at every pool size. A spool plan that scans a CSE with no plan fails when
// it is read.
func TestParallelRunRejectsCyclicSpools(t *testing.T) {
	stmt := &opt.Plan{Op: opt.PRoot, Children: []*opt.Plan{{Op: opt.PSpoolScan, SpoolID: 1}}}
	cases := []struct {
		name string
		cses map[int]*opt.CSEPlan
		want string
	}{
		{"cycle", map[int]*opt.CSEPlan{
			1: {ID: 1, Plan: &opt.Plan{Op: opt.PSpoolScan, SpoolID: 2}},
			2: {ID: 2, Plan: &opt.Plan{Op: opt.PSpoolScan, SpoolID: 1}},
		}, "cyclic"},
		{"self-cycle", map[int]*opt.CSEPlan{
			1: {ID: 1, Plan: &opt.Plan{Op: opt.PSpoolScan, SpoolID: 1}},
		}, "cyclic"},
		{"subquery", map[int]*opt.CSEPlan{
			1: {ID: 1, Plan: &opt.Plan{Op: opt.PScan, Filter: &scalar.Expr{Op: scalar.OpSubquery}}},
		}, "scalar subquery"},
		{"unknown dependency", map[int]*opt.CSEPlan{
			1: {ID: 1, Plan: &opt.Plan{Op: opt.PSpoolScan, SpoolID: 99}},
		}, "no plan for CSE 99"},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			res := &opt.Result{Root: stmt, CSEs: tc.cses}
			_, _, err := RunWithOptions(context.Background(), res, logical.NewMetadata(), storage.NewStore(), Options{Parallelism: par})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s at parallelism %d: err = %v, want %q", tc.name, par, err, tc.want)
			}
		}
	}
}

func TestRunRejectsNonRootStatements(t *testing.T) {
	res := &opt.Result{
		Root: &opt.Plan{Op: opt.PSeq, Children: []*opt.Plan{{Op: opt.PScan}}},
		CSEs: map[int]*opt.CSEPlan{},
	}
	if _, _, err := RunWithOptions(context.Background(), res, logical.NewMetadata(), storage.NewStore(), Options{}); err == nil {
		t.Error("non-Output statement plan must be rejected")
	}
}

func TestExecUnknownOp(t *testing.T) {
	c := bareContext(map[int]*opt.CSEPlan{})
	if _, err := c.exec(&opt.Plan{Op: opt.PhysOp(200)}); err == nil {
		t.Error("unknown physical op must error")
	}
}
