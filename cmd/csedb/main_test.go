package main

import (
	"bytes"
	"slices"
	"testing"

	"repro/csedb"
	"repro/internal/bench"
)

// newTestShell returns a shell on an sf 0.001 TPC-H database opened with
// the default knobs, and the buffer its errors go to.
func newTestShell(t *testing.T) (*shell, *bytes.Buffer) {
	t.Helper()
	k := newKnobs()
	db := csedb.Open(k.options())
	if err := db.LoadTPCH(0.001, 42); err != nil {
		t.Fatal(err)
	}
	errOut := &bytes.Buffer{}
	return &shell{db: db, knobs: k, maxRows: 20, out: &bytes.Buffer{}, errOut: errOut}, errOut
}

// TestSetReopensOverSameData: \set yields a database with the option
// changed that still sees the loaded tables.
func TestSetReopensOverSameData(t *testing.T) {
	sh, errOut := newTestShell(t)
	before := sh.db
	db, quit := sh.handleMeta(`\set parallelism 1`)
	if quit || errOut.Len() > 0 {
		t.Fatalf("\\set parallelism 1: quit=%v, errors %q", quit, errOut)
	}
	if db == before || db != sh.db {
		t.Fatal("\\set did not move the shell to a new database")
	}
	if got := db.ExecParallelism(); got != 1 {
		t.Errorf("ExecParallelism() = %d, want 1", got)
	}
	names := db.Catalog().Names()
	for _, table := range []string{"customer", "lineitem", "nation", "orders", "part", "partsupp", "region", "supplier"} {
		if !slices.Contains(names, table) {
			t.Errorf("table %s missing after \\set; catalog has %v", table, names)
		}
	}
}

// TestSetRejectsInvalid: an unknown name or a value the flag refuses prints
// an error and keeps the shell on the same database and knobs.
func TestSetRejectsInvalid(t *testing.T) {
	for _, cmd := range []string{`\set search bogus`, `\set nosuch 1`} {
		sh, errOut := newTestShell(t)
		before := sh.db
		db, quit := sh.handleMeta(cmd)
		if quit {
			t.Fatalf("%s quit the shell", cmd)
		}
		if db != before || sh.db != before {
			t.Errorf("%s replaced the database", cmd)
		}
		if errOut.Len() == 0 {
			t.Errorf("%s printed no error", cmd)
		}
		if got := sh.knobs.search.String(); got != "auto" {
			t.Errorf("%s left search = %q, want auto", cmd, got)
		}
	}
}

// TestSetNoCSE: after \set no-cse true a batch that shares is planned
// without candidates.
func TestSetNoCSE(t *testing.T) {
	sh, _ := newTestShell(t)
	batch := bench.Example1Q1 + ";" + bench.Example1Q2
	res, err := sh.db.Run(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates == 0 {
		t.Fatal("the two-query batch has no CSE candidates with CSE on; the check below would prove nothing")
	}
	db, _ := sh.handleMeta(`\set no-cse true`)
	if res, err = db.Run(batch); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 0 {
		t.Errorf("%d CSE candidates after \\set no-cse true, want 0", res.Stats.Candidates)
	}
}
