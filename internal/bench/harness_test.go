package bench

import (
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/exec"
	"repro/internal/sqltypes"
)

func TestModeSettings(t *testing.T) {
	if NoCSE.Settings().EnableCSE {
		t.Error("NoCSE must disable CSE")
	}
	s := WithCSE.Settings()
	if !s.EnableCSE || !s.Heuristics {
		t.Error("WithCSE must be the default configuration")
	}
	nh := NoHeuristics.Settings()
	if !nh.EnableCSE || nh.Heuristics {
		t.Error("NoHeuristics keeps CSE on, heuristics off")
	}
	if NoCSE.String() != "No CSE" || WithCSE.String() != "Using CSEs" {
		t.Error("mode names are the paper's column headers")
	}
}

func TestFigure8SQLShape(t *testing.T) {
	for n := 2; n <= 10; n++ {
		sql := Figure8SQL(n)
		if got := strings.Count(sql, "select "); got != n {
			t.Errorf("Figure8SQL(%d) has %d queries", n, got)
		}
		if !strings.Contains(sql, "customer, orders, lineitem") {
			t.Error("queries must share the C⋈O⋈L core")
		}
	}
	// Deterministic.
	if Figure8SQL(5) != Figure8SQL(5) {
		t.Error("workload generation must be deterministic")
	}
}

func TestWorkloadSQLParses(t *testing.T) {
	cfg := Config{ScaleFactor: 0.002, Seed: 1}
	db, err := NewDB(cfg, NoCSE)
	if err != nil {
		t.Fatal(err)
	}
	for name, sql := range map[string]string{
		"table1":    Table1SQL(),
		"table2":    Table2SQL(),
		"table3":    Table3SQL(),
		"table4":    Table4SQL(),
		"figure8":   Figure8SQL(4),
		"nosharing": NoSharingSQL(),
		"viewddl":   ViewDDL(),
	} {
		if _, _, err := db.Optimize(sql); err != nil {
			t.Errorf("%s workload fails to optimize: %v", name, err)
		}
	}
}

func TestRunTableVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	cfg := Config{ScaleFactor: 0.005, Seed: 1}
	tr, err := RunTable(cfg, "smoke", Table1SQL())
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Format()
	for _, want := range []string{"No CSE", "Using CSEs", "Estimated cost", "Execution time"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if tr.Runs[WithCSE].EstCost >= tr.Runs[NoCSE].EstCost {
		t.Error("CSE run should be estimated cheaper on Table 1")
	}
	for _, m := range tr.Runs {
		if m.ExecTime <= 0 || m.ExecTimeSeq <= 0 || m.Utilization <= 0 || m.Results == "" {
			t.Errorf("%s: exec %v, sequential %v, utilization %.2f, %d bytes of results; want all non-zero",
				m.Mode, m.ExecTime, m.ExecTimeSeq, m.Utilization, len(m.Results))
		}
	}
}

func TestVerifyAgainst(t *testing.T) {
	// result renders one single-column statement per argument, like
	// RunBatch does with a run's statement results.
	result := func(stmts ...[]int64) string {
		var res []*exec.StatementResult
		for _, vals := range stmts {
			sr := &exec.StatementResult{Names: []string{"n"}}
			for _, v := range vals {
				sr.Rows = append(sr.Rows, sqltypes.Row{sqltypes.NewInt(v)})
			}
			res = append(res, sr)
		}
		return difftest.Normalize(res)
	}
	a := &Measurement{Mode: NoCSE, Results: result([]int64{3, 5}, []int64{1})}
	for _, c := range []struct {
		name    string
		results string
		ok      bool
	}{
		{"same rows in another order", result([]int64{5, 3}, []int64{1}), true},
		{"row-count mismatch", result([]int64{3, 5, 7}, []int64{1}), false},
		{"same row count, different value", result([]int64{3, 6}, []int64{1}), false},
		{"statement-count mismatch", result([]int64{3, 5}), false},
	} {
		err := VerifyAgainst(a, &Measurement{Mode: WithCSE, Results: c.results})
		if (err == nil) != c.ok {
			t.Errorf("%s: VerifyAgainst = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestOverheadRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	ov, err := RunOverhead(Config{ScaleFactor: 0.005, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ov.Candidates != 0 {
		t.Errorf("no-sharing batch generated %d candidates", ov.Candidates)
	}
}

func TestCrossoverRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	points, err := RunCrossover(Config{ScaleFactor: 0.002, Seed: 1, Reps: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[1].Queries != 8 {
		t.Fatalf("sweep to 8 queries gave %+v, want points at 4 and 8", points)
	}
	for _, p := range points {
		if p.Lattice.Strategy != "lattice" || p.Greedy.Strategy != "greedy" {
			t.Errorf("n=%d ran %q and %q, want the forced lattice and greedy", p.Queries, p.Lattice.Strategy, p.Greedy.Strategy)
		}
	}
	if out := FormatCrossover(points); !strings.Contains(out, "Lattice vs greedy") {
		t.Errorf("crossover formatting broken:\n%s", out)
	}
}

func TestViewMaintenanceHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	m, err := RunViewMaintenance(Config{ScaleFactor: 0.005, Seed: 1}, WithCSE, 20)
	if err != nil {
		t.Fatal(err)
	}
	if m.Views != 3 {
		t.Errorf("views maintained = %d, want 3", m.Views)
	}
	out := FormatMaintenance(&MaintenanceMeasurement{Mode: NoCSE}, m)
	if !strings.Contains(out, "View maintenance") {
		t.Error("maintenance formatting broken")
	}
}

func TestCSVOutput(t *testing.T) {
	points := []Figure8Point{{Queries: 2, CostNoCSE: 10, CostCSE: 5, CandsCSE: 1, CandsNoPruning: 5}}
	csv := CSVFigure8(points)
	if !strings.HasPrefix(csv, "queries,") || !strings.Contains(csv, "2,10.00,5.00") {
		t.Errorf("CSV output malformed:\n%s", csv)
	}
	tr := &TableRow{Runs: [3]*Measurement{{Mode: NoCSE}, {Mode: WithCSE}, {Mode: NoHeuristics}}}
	if got := tr.CSV(); !strings.Contains(got, "\"Using CSEs\"") {
		t.Errorf("table CSV malformed:\n%s", got)
	}
}
