package exec_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/csedb"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
)

// renderResults canonicalizes per-statement output for byte comparison.
func renderResults(rs []*exec.StatementResult) string {
	var sb strings.Builder
	for i, r := range rs {
		fmt.Fprintf(&sb, "-- statement %d: %s\n", i+1, strings.Join(r.Names, ","))
		for _, row := range r.Rows {
			sb.WriteString(row.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestParallelMatchesSequentialStress executes a TPC-H batch with many
// shared (and stacked) spools on one worker and on a wide pool under the
// race detector, asserting each spool materializes exactly once at both
// sizes and that the wide pool's results byte-match the one-worker run.
func TestParallelMatchesSequentialStress(t *testing.T) {
	s := core.DefaultSettings()
	db := csedb.Open(csedb.Options{CSE: &s})
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	// Example 1's stacked-CSE batch plus a scale-up batch of six similar
	// queries: several covering subexpressions with multi-consumer and
	// spool-on-spool dependencies.
	sql := bench.Table2SQL() + "\n" + bench.Figure8SQL(6)
	out, md, err := db.Optimize(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.CSEs) < 2 {
		t.Fatalf("batch produced %d CSEs, want >= 2 for a meaningful stress test", len(out.Result.CSEs))
	}

	ctx := context.Background()
	exactlyOnce := func(label string, st *exec.Stats) {
		t.Helper()
		for id := range out.Result.CSEs {
			if n := st.SpoolRuns[id]; n != 1 {
				t.Errorf("%s: CSE %d materialized %d times, want exactly once", label, id, n)
			}
		}
	}
	seqRes, seqStats, err := exec.RunWithOptions(ctx, out.Result, md, db.Store(), exec.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	exactlyOnce("parallelism 1", seqStats)
	if seqStats.Workers != 1 {
		t.Errorf("parallelism 1: workers = %d, want 1", seqStats.Workers)
	}
	want := renderResults(seqRes)

	for rep := 0; rep < 3; rep++ {
		parRes, parStats, err := exec.RunWithOptions(ctx, out.Result, md, db.Store(), exec.Options{Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderResults(parRes); got != want {
			t.Fatalf("rep %d: parallel results differ from one worker\nparallel:\n%s\none worker:\n%s", rep, got, want)
		}
		exactlyOnce(fmt.Sprintf("rep %d at parallelism 8", rep), parStats)
		for id, rows := range seqStats.SpoolRows {
			if parStats.SpoolRows[id] != rows {
				t.Errorf("rep %d: CSE %d spooled %d rows at parallelism 8, %d at 1", rep, id, parStats.SpoolRows[id], rows)
			}
		}
		if parStats.Workers != 8 {
			t.Errorf("rep %d: workers = %d, want 8", rep, parStats.Workers)
		}
	}
}

// TestUtilizationCountsHelpers: a one-statement batch has one statement
// task, so at Parallelism 2 its utilization can exceed one half only when
// the time of the intra-op helpers its operators borrow is counted as busy.
func TestUtilizationCountsHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := core.DefaultSettings()
	db := csedb.Open(csedb.Options{CSE: &s})
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	out, md, err := db.Optimize(bench.Example1Q1)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := exec.RunWithOptions(context.Background(), out.Result, md, db.Store(), exec.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ParallelOps == 0 {
		t.Fatal("no operator ran with a helper; the batch cannot show helper time")
	}
	if u := st.Utilization(); u <= 0.5 {
		t.Errorf("utilization = %.2f with %d parallel ops, want > 0.5 (busy %v, wall %v)", u, st.ParallelOps, st.BusyTime, st.WallTime)
	}
}

// TestDBExecParallelismOption drives the public facade knob end to end.
func TestDBExecParallelismOption(t *testing.T) {
	db := tinyDB(t)
	seqDB := withExec(db, 1, 0)
	parDB := withExec(db, 4, 0)

	sql := `select dept, sum(salary) as s from emp where salary > 60 group by dept order by s desc;
select dept, count(*) as n from emp where salary > 60 group by dept order by n desc;
select id from emp where salary > 60 order by id;`
	seq, err := seqDB.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	par, err := parDB.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderResults(par.Statements), renderResults(seq.Statements); got != want {
		t.Fatalf("ExecParallelism=4 results differ:\n%s\nvs sequential:\n%s", got, want)
	}
	if par.ExecStats == nil || seq.ExecStats == nil {
		t.Fatal("BatchResult.ExecStats not populated")
	}
	if seq.ExecStats.Workers != 1 {
		t.Errorf("one-worker run reports %d workers, want 1", seq.ExecStats.Workers)
	}
	if par.ExecStats.Workers != 4 {
		t.Errorf("parallel workers = %d, want 4", par.ExecStats.Workers)
	}
}

// TestRunContextCancellation: a cancelled context aborts execution.
func TestRunContextCancellation(t *testing.T) {
	db := tinyDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.RunContext(ctx, "select id from emp"); err == nil {
		t.Fatal("cancelled context must abort execution")
	}
}
