package opt

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/scalar"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func TestPruneAlts(t *testing.T) {
	o := NewOptimizer(memo.NewMemo(nil))
	o.AltCap = 2
	mk := func(cost float64, uses map[int]int) *Alt {
		return &Alt{Plan: &Plan{}, Cost: cost, Uses: usageOf(3, uses)}
	}
	alts := []*Alt{
		mk(10, map[int]int{1: 2}),
		mk(12, map[int]int{1: 2}), // dominated: same usage, higher cost
		mk(11, map[int]int{2: 2}),
		mk(30, nil), // clean alternative, expensive
		mk(20, map[int]int{1: 1, 2: 1}),
	}
	out := o.pruneAlts(alts)
	// Cheapest per usage signature survives; the cap is 2 but the clean
	// alternative is always retained.
	foundClean := false
	perUsage := map[usage]int{}
	for _, a := range out {
		perUsage[a.Uses]++
		if a.Uses == noUses {
			foundClean = true
		}
	}
	if !foundClean {
		t.Error("the CSE-free alternative must always survive pruning")
	}
	for u, n := range perUsage {
		if n > 1 {
			t.Errorf("usage signature %v kept %d alternatives", countsOf(u, 3), n)
		}
	}
	for _, a := range out {
		if a.Cost == 12 {
			t.Error("dominated alternative survived")
		}
	}
	if len(out) > o.AltCap+1 {
		t.Errorf("pruned to %d alternatives, cap %d (+clean)", len(out), o.AltCap)
	}
}

func TestLayoutEqual(t *testing.T) {
	if !layoutEqual(nil, nil) {
		t.Error("nil layouts equal")
	}
	if layoutEqual([]scalar.ColID{1}, nil) {
		t.Error("lengths differ")
	}
	if !layoutEqual([]scalar.ColID{1, 2}, []scalar.ColID{1, 2}) {
		t.Error("equal layouts")
	}
	if layoutEqual([]scalar.ColID{1, 2}, []scalar.ColID{2, 1}) {
		t.Error("order matters")
	}
}

// miniCandidate builds a real memo for two similar single-join statements
// and a hand-made candidate whose expression is statement 1's join group and
// whose consumers are both statements' join groups.
func miniCandidate(t *testing.T) (*memo.Memo, *Candidate) {
	t.Helper()
	cat := catalog.New()
	for _, tab := range tpch.Schemas() {
		if err := cat.Add(tab); err != nil {
			t.Fatal(err)
		}
	}
	st := storage.NewStore()
	if err := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 3}, cat, st); err != nil {
		t.Fatal(err)
	}
	stmts, err := parser.Parse(`
select c_name from customer, orders where c_custkey = o_custkey and c_acctbal > 0;
select c_name from customer, orders where c_custkey = o_custkey and c_acctbal < 0`)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := logical.BuildBatch(stmts, cat)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memo.Build(batch)
	if err != nil {
		t.Fatal(err)
	}
	groups := m.SignatureGroups()["F|customer,orders"]
	if len(groups) != 2 {
		t.Fatalf("join groups = %d", len(groups))
	}
	expr := m.Group(groups[0])
	cand := &Candidate{
		ID:        0,
		ExprGroup: expr.ID,
		SpoolCols: expr.OutCols,
		Consumers: groups,
		Subs:      map[memo.GroupID]*Substitute{},
		Stmts:     map[int]bool{0: true, 1: true},
		Rows:      expr.Rows,
		Bytes:     expr.Rows * expr.RowSize,
		Tables:    expr.Sig.Tables,
	}
	return m, cand
}

// chargeCandidate behavior: single-consumer alternatives discarded,
// multi-consumer ones charged exactly once.
func TestChargeCandidateAccounting(t *testing.T) {
	// Build a minimal real memo so chargeOptions can cost the candidate's
	// expression group.
	m, cand := miniCandidate(t)
	o := NewOptimizer(m)
	if _, err := o.OptimizeBase(); err != nil {
		t.Fatal(err)
	}
	o.PrepareCSE([]*Candidate{cand})

	exprW, err := o.Winner(cand.ExprGroup)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := o.chargeOptions(cand, []int{cand.ID})
	if err != nil {
		t.Fatal(err)
	}
	init := opts[0].initCost
	// The initial cost is the expression cost plus the write cost (plus a
	// possible projection normalizing the spool layout).
	if init < exprW.Lower+cand.WriteCost() {
		t.Errorf("initial cost %g below C_E + C_W = %g", init, exprW.Lower+cand.WriteCost())
	}

	alts := []*Alt{
		{Plan: &Plan{}, Cost: 100, Uses: noUses},                             // no use: kept as-is
		{Plan: &Plan{}, Cost: 50, Uses: usageOf(1, map[int]int{cand.ID: 1})}, // single use: discarded
		{Plan: &Plan{}, Cost: 60, Uses: usageOf(1, map[int]int{cand.ID: 2})}, // charged once
	}
	out, err := o.chargeCandidate(alts, cand, []int{cand.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("alternatives after charging = %d, want 2", len(out))
	}
	if out[0].Cost != 100 {
		t.Errorf("unused alternative cost changed: %g", out[0].Cost)
	}
	charged := out[1]
	wantCost := 60 + init
	if diff := charged.Cost - wantCost; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("charged cost = %g, want %g (usage 60 + initial %g)", charged.Cost, wantCost, init)
	}
	if charged.Uses != noUses {
		t.Error("the candidate's usage entry must be settled after charging")
	}
	if charged.Choices[cand.ID] == nil {
		t.Error("charging must record the chosen expression plan")
	}
}

// TestOptimizeWithCSEsEndToEnd drives the full §5 machinery at the opt
// level: a hand-built candidate with real substitutes, enabled-set
// optimization, usage accounting, and charging.
func TestOptimizeWithCSEsEndToEnd(t *testing.T) {
	m, cand := miniCandidate(t)
	// Give both consumers identity-style substitutes: scan the spool,
	// apply the consumer's own local filter as the residual, rename.
	for _, cid := range cand.Consumers {
		g := m.Group(cid)
		sub := &Substitute{}
		// Residual: the consumer's full conjunct set minus the join (the
		// spool applied only the join in this hand-built setup — it IS
		// consumer 0's group, so consumer 0 needs no residual).
		if cid != cand.ExprGroup {
			// Rebuild consumer 1's filter over the spool's columns by base
			// alignment: here we cheat and reuse the consumer's conjuncts
			// columns only when they exist in the spool (they don't — the
			// spaces differ), so use no residual: the test asserts
			// accounting, not covering semantics.
			sub = &Substitute{}
		}
		for i, c := range g.OutCols {
			from := cand.SpoolCols[i%len(cand.SpoolCols)]
			sub.Renames = append(sub.Renames, Rename{From: from, To: c})
		}
		cand.Subs[cid] = sub
	}
	o := NewOptimizer(m)
	base, err := o.OptimizeBase()
	if err != nil {
		t.Fatal(err)
	}
	o.PrepareCSE([]*Candidate{cand})
	res, used, err := o.OptimizeWithCSEs([]int{cand.ID})
	if err != nil {
		t.Fatal(err)
	}
	// Whatever the outcome, accounting must close: no leftover uses, and a
	// used candidate must carry a plan.
	if len(used) > 0 {
		if res.CSEs[cand.ID] == nil {
			t.Error("used candidate has no expression plan attached")
		}
		spools := map[int]bool{}
		res.Root.UsedSpoolIDs(spools)
		if !spools[cand.ID] {
			t.Error("plan claims to use the candidate but scans no spool")
		}
	}
	if res.Cost > base.Cost {
		t.Errorf("enabled-set optimization must never be worse than base: %g vs %g", res.Cost, base.Cost)
	}
	if err := errFromFormat(res, m); err != nil {
		t.Error(err)
	}
	_ = o.Doms()
	o.ReleaseCaches()
	if _, err := o.BaseCost(); err != nil {
		t.Error(err)
	}
	if cand.ReadBase() <= 0 {
		t.Error("ReadBase must be positive")
	}
}

// errFromFormat smoke-tests Result.Format.
func errFromFormat(res *Result, m *memo.Memo) error {
	if s := res.Format(m.Md); len(s) == 0 {
		return fmtError("empty plan rendering")
	}
	return nil
}

type fmtError string

func (e fmtError) Error() string { return string(e) }

func TestPhysOpStrings(t *testing.T) {
	ops := []PhysOp{PScan, PIndexScan, PFilter, PHashJoin, PNLJoin, PMergeJoin,
		PLookupJoin, PHashAgg, PStreamAgg, PSort, PProject, PRoot, PSeq, PSpoolScan}
	seen := map[string]bool{}
	for _, op := range ops {
		s := op.String()
		if s == "" || seen[s] {
			t.Errorf("op %d has bad/duplicate name %q", op, s)
		}
		seen[s] = true
	}
	if PhysOp(99).String() == "" {
		t.Error("unknown op must still render")
	}
}
