package exec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/opt"
	"repro/internal/storage"
)

func bareContext(cses map[int]*opt.CSEPlan) *Context {
	res := &opt.Result{Root: &opt.Plan{Op: opt.PRoot}, CSEs: cses}
	return newContext(context.Background(), res, logical.NewMetadata(), storage.NewStore(), newCollector(1, 1, false), Options{Parallelism: 1})
}

func TestSpoolErrors(t *testing.T) {
	// Cyclic dependency: a CSE whose plan scans itself.
	self := &opt.Plan{Op: opt.PSpoolScan, SpoolID: 1}
	c := bareContext(map[int]*opt.CSEPlan{1: {ID: 1, Plan: self}})
	if _, err := c.spool(7); err == nil || !strings.Contains(err.Error(), "no plan for CSE") {
		t.Errorf("missing CSE error = %v", err)
	}
	if _, err := c.spool(1); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("cyclic spool error = %v", err)
	}
}

func TestParallelRunRejectsCyclicSpools(t *testing.T) {
	res := &opt.Result{
		Root: &opt.Plan{Op: opt.PRoot, Children: []*opt.Plan{{Op: opt.PSpoolScan, SpoolID: 1}}},
		CSEs: map[int]*opt.CSEPlan{
			1: {ID: 1, Plan: &opt.Plan{Op: opt.PSpoolScan, SpoolID: 2}},
			2: {ID: 2, Plan: &opt.Plan{Op: opt.PSpoolScan, SpoolID: 1}},
		},
	}
	_, _, err := RunWithOptions(context.Background(), res, logical.NewMetadata(), storage.NewStore(), Options{Parallelism: 4})
	if err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("parallel cyclic spool error = %v", err)
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
