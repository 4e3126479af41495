package difftest

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/qgen"
)

// runPlane optimizes and executes a batch with the columnar data plane on or
// off, returning the normalized result text and the execution stats.
func (o *Oracle) runPlane(sql string, rowPlane bool) (string, *exec.Stats, error) {
	stmts, err := parser.Parse(sql)
	if err != nil {
		return "", nil, err
	}
	batch, err := logical.BuildBatch(stmts, o.Cat)
	if err != nil {
		return "", nil, err
	}
	m, err := memo.Build(batch)
	if err != nil {
		return "", nil, err
	}
	out, err := core.OptimizeObserved(m, core.DefaultSettings(), obs.NewTrace(), nil)
	if err != nil {
		return "", nil, err
	}
	res, stats, err := exec.RunWithOptions(context.Background(), out.Result, batch.Metadata, o.Store, exec.Options{
		NoColPlane: rowPlane,
	})
	if err != nil {
		return "", nil, err
	}
	return Normalize(res), stats, nil
}

// TestColumnPlanePinned is the columnar plane's dedicated oracle: 50 seeded
// generated batches, each run through the column plane and the row-at-a-time
// reference, demanding byte-identical normalized results. It additionally
// asserts the planes really diverged in mechanism: the columnar runs must
// compile selection kernels and typed hash passes (the plane was exercised,
// not silently skipped), and the row-plane runs must report none.
func TestColumnPlanePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("50-batch column-plane oracle is slow; run without -short")
	}
	o := tpchOracle(t, nil)
	totalSel, totalHash := 0, 0
	for seed := int64(1); seed <= 50; seed++ {
		b := qgen.New(qgen.Config{Seed: seed}).Batch()
		sql := b.SQL()
		colText, colStats, err := o.runPlane(sql, false)
		if err != nil {
			t.Fatalf("seed %d: column plane: %v", seed, err)
		}
		rowText, rowStats, err := o.runPlane(sql, true)
		if err != nil {
			t.Fatalf("seed %d: row plane: %v", seed, err)
		}
		if d := Diff(rowText, colText); d != "" {
			t.Fatalf("seed %d: column plane diverged from row plane:\n%s\nbatch:\n%s", seed, d, sql)
		}
		if rowStats.ColSelections != 0 || rowStats.ColHashPasses != 0 {
			t.Fatalf("seed %d: row-plane run reported columnar work (%d selections, %d hash passes)",
				seed, rowStats.ColSelections, rowStats.ColHashPasses)
		}
		totalSel += colStats.ColSelections
		totalHash += colStats.ColHashPasses
	}
	if totalSel == 0 {
		t.Fatal("no batch compiled a selection kernel; the columnar plane was never exercised")
	}
	if totalHash == 0 {
		t.Fatal("no batch used column-at-a-time hashing; the columnar plane was never exercised")
	}
	t.Logf("columnar plane exercised: %d selection kernels, %d typed hash passes across 50 batches", totalSel, totalHash)
}
