package difftest

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/qgen"
	"repro/internal/sqltypes"
)

var (
	tpchOnce sync.Once
	tpchBase *Oracle
	tpchErr  error
)

// tpchOracle returns an oracle sharing one TPC-H load across the package's
// tests (the store is read-only under Check).
func tpchOracle(t testing.TB, cfgs []Config) *Oracle {
	t.Helper()
	tpchOnce.Do(func() { tpchBase, tpchErr = NewTPCH(0.01, nil) })
	if tpchErr != nil {
		t.Fatalf("loading TPC-H: %v", tpchErr)
	}
	return &Oracle{Cat: tpchBase.Cat, Store: tpchBase.Store, Configs: cfgs}
}

// TestDifferentialMatrix is the headline oracle run: 50 seeded generated
// batches, each executed across the full configuration matrix with
// byte-identical normalized results and invariants demanded in every cell.
func TestDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential matrix is slow; run without -short")
	}
	o := tpchOracle(t, Matrix())
	for seed := int64(1); seed <= 50; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			b := qgen.New(qgen.Config{Seed: seed}).Batch()
			if err := o.CheckBatch(b); err != nil {
				shrunk, serr := Shrink(o, b)
				t.Fatalf("seed %d failed: %v\n\nshrunk repro:\n%s\n\nregression test:\n%s",
					seed, err, shrunk.SQL(), RegressionTest("Seed", shrunk, serr))
			}
		})
	}
}

// TestDifferentialSmokeShort keeps a quick differential signal in -short
// runs (the -race -short CI lane).
func TestDifferentialSmokeShort(t *testing.T) {
	o := tpchOracle(t, Smoke())
	for seed := int64(101); seed <= 106; seed++ {
		b := qgen.New(qgen.Config{Seed: seed}).Batch()
		if err := o.CheckBatch(b); err != nil {
			t.Fatalf("seed %d: %v\nbatch:\n%s", seed, err, b.SQL())
		}
	}
}

func TestRandomSchemaDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("random-schema differential is slow; run without -short")
	}
	for _, schemaSeed := range []int64{3, 8} {
		s := qgen.RandomSchema(schemaSeed)
		o := New(Smoke())
		if err := o.InstallSchema(s); err != nil {
			t.Fatalf("schema seed %d: install: %v", schemaSeed, err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			b := qgen.New(qgen.Config{Seed: seed, Schema: s}).Batch()
			if err := o.CheckBatch(b); err != nil {
				t.Fatalf("schema seed %d batch seed %d: %v\nbatch:\n%s", schemaSeed, seed, err, b.SQL())
			}
		}
	}
}

// TestInjectedBugIsCaughtAndShrunk deliberately corrupts the optimizer —
// clearing a consumer's residual predicate turns a candidate into a wrong
// covering subexpression (it returns the spool's rows unfiltered) — and
// requires (a) the oracle to catch the wrong results and (b) the shrinker to
// reduce the failure to at most 3 queries with a printable regression test.
func TestInjectedBugIsCaughtAndShrunk(t *testing.T) {
	if testing.Short() {
		t.Skip("bug-injection shrink loop is slow; run without -short")
	}
	injected := false
	core.TestHookMutateCandidate = func(c *opt.Candidate) {
		for _, sub := range c.Subs {
			if sub.Residual != nil {
				sub.Residual = nil
				injected = true
			}
		}
	}
	defer func() { core.TestHookMutateCandidate = nil }()

	o := tpchOracle(t, Smoke())
	for seed := int64(1); seed <= 40; seed++ {
		injected = false
		b := qgen.New(qgen.Config{Seed: seed}).Batch()
		err := o.CheckBatch(b)
		if err == nil || !injected {
			continue
		}
		shrunk, serr := Shrink(o, b)
		if serr == nil {
			t.Fatalf("seed %d: shrink lost the failure", seed)
		}
		if n := len(shrunk.Queries); n > 3 {
			t.Fatalf("seed %d: shrinker left %d queries (want <= 3):\n%s", seed, n, shrunk.SQL())
		}
		reg := RegressionTest("WrongCovering", shrunk, serr)
		for _, want := range []string{"func TestRegressionWrongCovering", "difftest.NewTPCH", shrunk.SQL()} {
			if !strings.Contains(reg, want) {
				t.Fatalf("regression test missing %q:\n%s", want, reg)
			}
		}
		t.Logf("seed %d: injected bug caught (%v), shrunk %d -> %d queries", seed, err, len(b.Queries), len(shrunk.Queries))
		return
	}
	t.Fatalf("no seed in 1..40 triggered the injected wrong-covering bug; generator may have lost residual coverage")
}

func TestNormalizeRoundsFloats(t *testing.T) {
	o := tpchOracle(t, Smoke())
	// Two queries whose only difference is summation order sensitivity.
	err := o.Check("select l_returnflag, sum(l_extendedprice) as s from lineitem group by l_returnflag; select l_returnflag, sum(l_extendedprice) as s from lineitem where l_quantity > 0 group by l_returnflag;")
	if err != nil {
		t.Fatalf("normalization should absorb float summation order: %v", err)
	}
}

// TestDiffFloatTolerance: two sums that differ in the last bit must compare
// equal even when they straddle a decimal rounding boundary (rounding to four
// decimals called this pair 190008.3908 and 190008.3907), while a real
// difference, and any difference in a non-float cell, still shows.
func TestDiffFloatTolerance(t *testing.T) {
	result := func(key int64, f float64) []*exec.StatementResult {
		return []*exec.StatementResult{{
			Names: []string{"k", "s"},
			Rows:  []sqltypes.Row{{sqltypes.NewInt(key), sqltypes.NewFloat(f)}},
		}}
	}
	lo, hi := 190008.39074999999, 190008.39075000001
	if d := Diff(Normalize(result(1, lo)), Normalize(result(1, hi))); d != "" {
		t.Errorf("last-bit float difference reported as a mismatch:\n%s", d)
	}
	if Diff(Normalize(result(1, lo)), Normalize(result(1, lo+0.01))) == "" {
		t.Error("a float difference of 0.01 must be a mismatch")
	}
	if Diff(Normalize(result(10000000000, lo)), Normalize(result(10000000001, lo))) == "" {
		t.Error("integer cells must compare exactly")
	}
}

// TestRegressionCountOverEmptySpool pins benchmark/FINDINGS.md's wrong
// answer: a count re-aggregated from a shared spool in which no row qualifies
// came back NULL instead of 0. The first batch is the FINDINGS query beside
// the covering companion it had in its generated batch (qgen seed 55433, 48
// queries, NoCTE); the second is what the shrinker reduces that pair to.
func TestRegressionCountOverEmptySpool(t *testing.T) {
	o := tpchOracle(t, Matrix())
	for _, sql := range []string{`
select max(o_totalprice) as a0, count(*) as a1
from customer, orders, nation
where c_custkey = o_custkey
  and c_nationkey = n_nationkey
  and o_orderdate < '1996-07-01'
  and o_totalprice = 31528;

select n_regionkey, c_mktsegment, count(*) as a0, count(*) as a1
from customer, orders, nation
where c_custkey = o_custkey
  and c_nationkey = n_nationkey
  and o_orderdate < '1996-07-01'
  and n_regionkey in (2, 3)
group by n_regionkey, c_mktsegment;`, `
select count(*) as a1
from customer, orders, nation
where c_custkey = o_custkey
  and c_nationkey = n_nationkey
  and o_totalprice = 31528;

select count(*) as a0
from customer, orders, nation
where c_custkey = o_custkey
  and c_nationkey = n_nationkey
  and n_regionkey in (2);`} {
		if err := o.Check(sql); err != nil {
			t.Errorf("differential failure: %v\nbatch:%s", err, sql)
		}
	}
}
