package exec_test

import (
	"context"
	"fmt"
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
// shared (and stacked) spools on a wide worker pool under the race
// detector, asserting each spool materializes exactly once and that results
// byte-match the sequential executor.
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
	seqRes, seqStats, err := exec.RunWithOptions(ctx, out.Result, md, db.Store(), exec.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !seqStats.Sequential {
		t.Error("Parallelism=1 must select the sequential executor")
	}
	want := renderResults(seqRes)

	for rep := 0; rep < 3; rep++ {
		parRes, parStats, err := exec.RunWithOptions(ctx, out.Result, md, db.Store(), exec.Options{Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if parStats.Sequential {
			t.Fatalf("parallel run fell back to sequential: %s", parStats.FallbackReason)
		}
		if got := renderResults(parRes); got != want {
			t.Fatalf("rep %d: parallel results differ from sequential\nparallel:\n%s\nsequential:\n%s", rep, got, want)
		}
		if len(parStats.SpoolRuns) != len(out.Result.CSEs) {
			t.Errorf("rep %d: %d spools materialized, want %d", rep, len(parStats.SpoolRuns), len(out.Result.CSEs))
		}
		for id, n := range parStats.SpoolRuns {
			if n != 1 {
				t.Errorf("rep %d: CSE %d materialized %d times, want exactly once", rep, id, n)
			}
		}
		for id, rows := range seqStats.SpoolRows {
			if parStats.SpoolRows[id] != rows {
				t.Errorf("rep %d: CSE %d spooled %d rows in parallel, %d sequential", rep, id, parStats.SpoolRows[id], rows)
			}
		}
		if len(parStats.Waves) == 0 {
			t.Errorf("rep %d: parallel run recorded no spool waves", rep)
		}
		if parStats.Workers != 8 {
			t.Errorf("rep %d: workers = %d, want 8", rep, parStats.Workers)
		}
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
	if !seq.ExecStats.Sequential {
		t.Error("ExecParallelism=1 must report a sequential run")
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
