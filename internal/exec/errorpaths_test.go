package exec_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/csedb"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/sqltypes"
)

// mediumDB builds emp/dept with enough rows that morsel chunking, spool
// sharing, and cancellation mid-execution are all meaningful.
// withExec opens a database over db's data with the given executor
// parallelism and chunk size.
func withExec(db *csedb.DB, par, chunk int) *csedb.DB {
	s := db.Settings()
	return csedb.OpenOn(db.Catalog(), db.Store(), csedb.Options{CSE: &s, ExecParallelism: par, ExecChunkSize: chunk})
}

func mediumDB(t testing.TB) *csedb.DB {
	t.Helper()
	s := core.DefaultSettings()
	db := csedb.Open(csedb.Options{CSE: &s})
	i, f, str := sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString
	if err := db.CreateTable("emp", []catalog.Column{
		{Name: "id", Type: i}, {Name: "dept", Type: str},
		{Name: "salary", Type: f}, {Name: "boss", Type: i},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("dept", []catalog.Column{
		{Name: "name", Type: str}, {Name: "budget", Type: f},
	}); err != nil {
		t.Fatal(err)
	}
	names := []string{"eng", "sales", "hr", "ops", "legal", "fin"}
	var emps []csedb.Row
	for id := 0; id < 5000; id++ {
		emps = append(emps, csedb.Row{
			sqltypes.NewInt(int64(id)),
			sqltypes.NewString(names[id%len(names)]),
			sqltypes.NewFloat(float64(50 + id%150)),
			sqltypes.NewInt(int64(id % 97)),
		})
	}
	if err := db.Insert("emp", emps); err != nil {
		t.Fatal(err)
	}
	var depts []csedb.Row
	for j, n := range names {
		depts = append(depts, csedb.Row{sqltypes.NewString(n), sqltypes.NewFloat(float64(100 * (j + 1)))})
	}
	if err := db.Insert("dept", depts); err != nil {
		t.Fatal(err)
	}
	return db
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline (plus slack) and fails if it never does — the leak check for
// error paths that tear down worker pools.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	const slack = 8
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d (+%d slack)", n, baseline, slack)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationMidMorsel cancels batches at a sweep of delays while they
// execute with chunk size 1 (maximal morsel interleave) on the parallel
// executor. Every run must either finish cleanly or return the context
// error — never hang, panic, or leak the worker pool.
func TestCancellationMidMorsel(t *testing.T) {
	db := withExec(mediumDB(t), 0, 1)
	sql := `
select dept, sum(salary) as s, count(*) as c from emp, dept where dept = name and salary > 60 group by dept;
select dept, max(salary) as m from emp, dept where dept = name and salary > 60 group by dept;`

	baseline := runtime.NumGoroutine()
	delays := []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond}
	var cancelled, completed int
	for round := 0; round < 4; round++ {
		for _, d := range delays {
			ctx, cancel := context.WithCancel(context.Background())
			if d == 0 {
				cancel()
			} else {
				time.AfterFunc(d, cancel)
			}
			res, err := db.RunContext(ctx, sql)
			cancel()
			switch {
			case err != nil:
				cancelled++
				if !strings.Contains(err.Error(), "context canceled") {
					t.Fatalf("delay %v: unexpected error kind: %v", d, err)
				}
			default:
				completed++
				if len(res.Statements) != 2 {
					t.Fatalf("delay %v: completed run returned %d statements", d, len(res.Statements))
				}
			}
		}
	}
	if cancelled == 0 {
		t.Log("warning: no run was actually cancelled mid-flight (machine too fast); coverage reduced")
	}
	settleGoroutines(t, baseline)
}

// TestEmptyBuildSideAtChunk1 drives a hash join whose build side is empty
// (no dept has budget > 5000) through chunk size 1, sequential and parallel:
// the join must yield zero rows without error — the executor short-circuits
// the probe side when the build side produced nothing.
func TestEmptyBuildSideAtChunk1(t *testing.T) {
	db := mediumDB(t)
	for _, par := range []int{1, 0} {
		for _, chunk := range []int{1, 0} {
			res, err := withExec(db, par, chunk).Run(`select name, count(salary) as c from emp, dept where dept = name and budget > 5000 group by name`)
			if err != nil {
				t.Fatalf("par=%d chunk=%d: %v", par, chunk, err)
			}
			if n := len(res.Statements[0].Rows); n != 0 {
				t.Fatalf("par=%d chunk=%d: empty build side produced %d rows", par, chunk, n)
			}
		}
	}
}

// TestConsumerErrorAfterSpoolMaterialization runs a batch whose first two
// statements share a spool and whose third errors at runtime (multi-row
// scalar subquery). The error must surface after the spool phase has already
// materialized work, abort the batch, and leave no goroutines behind.
func TestConsumerErrorAfterSpoolMaterialization(t *testing.T) {
	db := mediumDB(t)
	shared := `
select dept, sum(salary) as s from emp, dept where dept = name and salary > 60 group by dept;
select dept, count(salary) as c from emp, dept where dept = name and salary > 60 group by dept;`

	// Establish that this shape does share a spool on this database, so the
	// error batch below really does error after spool materialization.
	ok, err := db.Run(shared)
	if err != nil {
		t.Fatal(err)
	}
	if len(ok.Stats.UsedCSEs) == 0 {
		t.Skip("optimizer chose not to share on this input; error-after-spool path not reachable")
	}

	failing := shared + `
select name from dept where budget > (select salary from emp);`
	baseline := runtime.NumGoroutine()
	for _, par := range []int{0, 1, 3} {
		for _, chunk := range []int{1, 0} {
			_, err := withExec(db, par, chunk).Run(failing)
			if err == nil || !strings.Contains(err.Error(), "scalar subquery returned") {
				t.Fatalf("par=%d chunk=%d: want scalar-subquery error, got %v", par, chunk, err)
			}
		}
	}
	settleGoroutines(t, baseline)
}
