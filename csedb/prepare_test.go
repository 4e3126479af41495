package csedb_test

import (
	"context"
	"maps"
	"strings"
	"sync"
	"testing"

	"repro/csedb"
)

// TestPreparedMatchesRun pins the prepared path against Run: the same batch
// prepared once and executed twice must return the same results as the
// one-shot path, statement for statement.
func TestPreparedMatchesRun(t *testing.T) {
	db := openTPCH(t, withCSE())
	p, err := db.Prepare(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		res, err := db.ExecutePrepared(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		compareResults(t, direct, res)
	}
}

// TestPreparedConcurrentExecution exercises the immutability contract: one
// Prepared executed from many goroutines at once must give every caller the
// same rows (asserted under -race in CI).
func TestPreparedConcurrentExecution(t *testing.T) {
	db := openTPCH(t, withCSE())
	p, err := db.Prepare(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	results := make([]*csedb.BatchResult, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = db.ExecutePrepared(context.Background(), p, nil)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		compareResults(t, direct, results[w])
	}
}

func TestPrepareRejectsNonSelect(t *testing.T) {
	db := openTPCH(t, withCSE())
	_, err := db.Prepare(`create materialized view mv as select n_name from nation;`)
	if err == nil || !strings.Contains(err.Error(), "only SELECT") {
		t.Fatalf("DDL prepare: got %v, want only-SELECT error", err)
	}
	if _, err := db.Prepare(";;"); err == nil {
		t.Fatal("empty batch prepare: got nil error")
	}
}

// TestPreparedStale pins the invalidation contract the plan-shape cache
// relies on: the version snapshot covers exactly the source tables, a write
// to one of them moves the store away from it, and a write elsewhere does
// not.
func TestPreparedStale(t *testing.T) {
	db := openTPCH(t, withCSE())
	p, err := db.Prepare(`select n_name from nation where n_nationkey < 5;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NumStatements(); got != 1 {
		t.Fatalf("NumStatements = %d, want 1", got)
	}
	if got := p.SourceTables(); len(got) != 1 || got[0] != "nation" {
		t.Fatalf("SourceTables = %v, want [nation]", got)
	}
	if len(p.Versions()) != 1 {
		t.Fatalf("Versions = %v, want one entry", p.Versions())
	}
	if p.PrepareTime() <= 0 {
		t.Fatal("PrepareTime not recorded")
	}

	fresh := func() bool { return maps.Equal(db.Store().Versions(p.SourceTables()), p.Versions()) }
	if !fresh() {
		t.Fatal("fresh plan's snapshot differs from the store")
	}
	db.Store().Touch("lineitem")
	if !fresh() {
		t.Fatal("write to an unreferenced table made the plan stale")
	}
	db.Store().Touch("nation")
	if fresh() {
		t.Fatal("write to a source table did not make the plan stale")
	}
}

// TestOpenOnSharesStore pins the multi-DB wiring the serving layer and the
// differential harness rely on: two databases opened onto one catalog and
// store see the same data and return the same results.
func TestOpenOnSharesStore(t *testing.T) {
	db := openTPCH(t, withCSE())
	other := csedb.OpenOn(db.Catalog(), db.Store(), csedb.Options{CSE: noCSE(), ExecParallelism: 1})
	a, err := db.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := other.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, a, b)
}
