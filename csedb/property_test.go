package csedb_test

import (
	"testing"

	"repro/csedb"
	"repro/internal/difftest"
	"repro/internal/qgen"
)

// The random-workload property tests are thin wrappers around the shared
// grammar-driven generator in internal/qgen — the same grammar the
// differential oracle (internal/difftest) and the fuzz targets use, so the
// query surface under test is defined exactly once.

// batchSQL generates the seeded batch used by one property-test round.
func batchSQL(seed int64) string {
	return qgen.New(qgen.Config{Seed: seed, MinQueries: 2, MaxQueries: 4}).Batch().SQL()
}

// TestRandomWorkloadsCSEEquivalence is the central correctness property: on
// randomly generated similar-query batches, the CSE-optimized plans must
// return exactly the same results as plain per-query optimization.
func TestRandomWorkloadsCSEEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("random workload sweep skipped in -short mode")
	}
	dbOff := openTPCH(t, noCSE())
	dbOn := openTPCH(t, withCSE())
	dbNoH := openTPCH(t, noHeuristics())

	const rounds = 12
	for round := 0; round < rounds; round++ {
		sql := batchSQL(int64(1000 + round))

		off, err := dbOff.Run(sql)
		if err != nil {
			t.Fatalf("round %d no-CSE: %v\n%s", round, err, sql)
		}
		on, err := dbOn.Run(sql)
		if err != nil {
			t.Fatalf("round %d CSE: %v\n%s", round, err, sql)
		}
		noH, err := dbNoH.Run(sql)
		if err != nil {
			t.Fatalf("round %d no-heuristics: %v\n%s", round, err, sql)
		}
		base := difftest.Normalize(off.Statements)
		if d := difftest.Diff(base, difftest.Normalize(on.Statements)); d != "" {
			t.Fatalf("round %d: CSE results differ from no-CSE (baseline) at %s\nbatch:\n%s", round, d, sql)
		}
		if d := difftest.Diff(base, difftest.Normalize(noH.Statements)); d != "" {
			t.Fatalf("round %d: no-heuristics results differ from no-CSE (baseline) at %s\nbatch:\n%s", round, d, sql)
		}
	}
}

// TestRandomWorkloadsCostNeverWorse: enabling CSEs never yields a plan the
// optimizer believes is more expensive — the phase is purely additive.
func TestRandomWorkloadsCostNeverWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("random workload sweep skipped in -short mode")
	}
	dbOff := openTPCH(t, noCSE())
	dbOn := openTPCH(t, withCSE())
	for round := 0; round < 8; round++ {
		sql := batchSQL(int64(7700 + round))
		if _, _, err := dbOff.Optimize(sql); err != nil {
			t.Fatal(err)
		}
		on, _, err := dbOn.Optimize(sql)
		if err != nil {
			t.Fatal(err)
		}
		if on.Stats.FinalCost > on.Stats.BaseCost {
			t.Errorf("round %d: CSE phase made the plan worse: %.2f > %.2f",
				round, on.Stats.FinalCost, on.Stats.BaseCost)
		}
	}
}

// TestChunkSizeSweepEquivalence runs one generated batch at several morsel
// chunk sizes through the public API and demands identical results — the
// csedb-level counterpart of the difftest chunk cells, exercising
// Options.ExecChunkSize on databases opened over one data set.
func TestChunkSizeSweepEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chunk sweep skipped in -short mode")
	}
	db := openTPCH(t, withCSE())
	sql := batchSQL(4242)
	var base string
	for _, chunk := range []int{0, 1, 7, 1024} {
		cdb := csedb.OpenOn(db.Catalog(), db.Store(), csedb.Options{CSE: withCSE(), ExecChunkSize: chunk})
		if got := cdb.ExecChunkSize(); got != chunk {
			t.Fatalf("ExecChunkSize = %d, opened with %d", got, chunk)
		}
		res, err := cdb.Run(sql)
		if err != nil {
			t.Fatalf("chunk %d: %v\n%s", chunk, err, sql)
		}
		text := difftest.Normalize(res.Statements)
		if base == "" {
			base = text
			continue
		}
		if d := difftest.Diff(base, text); d != "" {
			t.Fatalf("chunk %d results differ from default chunking (baseline) at %s\n%s", chunk, d, sql)
		}
	}
}
