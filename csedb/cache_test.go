package csedb_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/csedb"
	"repro/internal/core"
	"repro/internal/sqltypes"
)

// openCached opens a TPC-H database with the result cache configured at the
// given byte budget (0 = default budget).
func openCached(t testing.TB, settings *core.Settings, budget int64) *csedb.DB {
	t.Helper()
	db := csedb.Open(csedb.Options{CSE: settings, CacheBudget: budget})
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCacheWarmRerun: re-running the same batch serves the CSE spool from
// the cross-batch cache — no re-materialization — with identical results.
func TestCacheWarmRerun(t *testing.T) {
	db := openCached(t, withCSE(), 0)
	cold, err := db.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	if cold.ExecStats.CacheHits() != 0 {
		t.Fatalf("cold run reported %d cache hits", cold.ExecStats.CacheHits())
	}
	warm, err := db.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, cold, warm)
	if got := warm.ExecStats.CacheHits(); got != 1 {
		t.Errorf("warm run cache hits = %d, want 1", got)
	}
	if len(warm.ExecStats.SpoolRuns) != 0 {
		t.Errorf("warm run re-materialized spools: %v", warm.ExecStats.SpoolRuns)
	}
	if n := warm.ExecStats.SpoolRows; len(n) != 1 {
		t.Errorf("warm run spool rows = %v, want the one cached spool", n)
	}
	s := db.ResultCache().Stats()
	if s.Hits != 1 || s.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit, 1 entry", s)
	}
	if got := db.Metrics().Snapshot()["exec_spools_cached_total"]; got != 1 {
		t.Errorf("exec_spools_cached_total = %v, want 1", got)
	}
}

// TestWriteInvalidatesDependentEntries: inserting into a base table the
// cached spool reads bumps that table's version, so the next batch rejects
// the stale entry and recomputes from the new data.
func TestWriteInvalidatesDependentEntries(t *testing.T) {
	db := openCached(t, withCSE(), 0)
	if _, err := db.Run(example1SQL); err != nil {
		t.Fatal(err)
	}
	if e := db.ResultCache().Stats().Entries; e != 1 {
		t.Fatalf("entries after cold run = %d, want 1", e)
	}

	newRows := []csedb.Row{{
		sqltypes.NewInt(1), sqltypes.NewInt(1), sqltypes.NewInt(1), sqltypes.NewInt(99),
		sqltypes.NewFloat(5), sqltypes.NewFloat(70000), sqltypes.NewFloat(0), sqltypes.NewFloat(0),
		sqltypes.NewString("N"), sqltypes.MustParseDate("1995-06-01"), sqltypes.NewString("MAIL"),
	}}
	if err := db.Insert("lineitem", newRows); err != nil {
		t.Fatal(err)
	}

	after, err := db.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.ExecStats.CacheHits(); got != 0 {
		t.Errorf("run after write served %d spools from a stale cache", got)
	}
	s := db.ResultCache().Stats()
	if s.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", s.Invalidations)
	}

	// The post-write results must match a fresh, uncached, no-CSE database
	// holding the same data.
	ref := openTPCH(t, noCSE())
	if err := ref.Insert("lineitem", newRows); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, want, after)

	// The recomputed entry is fresh again: one more run hits.
	again, err := db.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.ExecStats.CacheHits(); got != 1 {
		t.Errorf("re-run after recompute cache hits = %d, want 1", got)
	}
}

// TestCacheDisabled: CacheBudget < 0 turns the cache off entirely.
func TestCacheDisabled(t *testing.T) {
	db := openCached(t, withCSE(), -1)
	if db.ResultCache() != nil {
		t.Fatal("ResultCache non-nil with CacheBudget -1")
	}
	for i := 0; i < 2; i++ {
		res, err := db.Run(example1SQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExecStats.CacheHits() != 0 {
			t.Fatalf("run %d reported cache hits with the cache disabled", i)
		}
	}
}

// TestOpenOnCacheStartsCold: a DB opened over warm data has a cache of its
// own — off when disabled, and cold when enabled, whatever another DB on the
// same store has cached.
func TestOpenOnCacheStartsCold(t *testing.T) {
	db := openCached(t, withCSE(), 0)
	for i := 0; i < 2; i++ {
		if _, err := db.Run(example1SQL); err != nil {
			t.Fatal(err)
		}
	}
	off := csedb.OpenOn(db.Catalog(), db.Store(), csedb.Options{CSE: withCSE(), CacheBudget: -1})
	if off.ResultCache() != nil {
		t.Fatal("ResultCache non-nil with CacheBudget -1")
	}
	res, err := off.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecStats.CacheHits() != 0 {
		t.Fatal("cache hit while disabled")
	}
	on := csedb.OpenOn(db.Catalog(), db.Store(), csedb.Options{CSE: withCSE()})
	for i, want := range []int{0, 1} {
		res, err := on.Run(example1SQL)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.ExecStats.CacheHits(); got != want {
			t.Fatalf("run %d on the re-enabled DB: cache hits = %d, want %d", i, got, want)
		}
	}
}

// TestCacheConcurrentStress exercises the cache under -race: parallel
// batches hitting the same entry, a writer bumping source-table versions
// mid-flight (invalidation racing materialization), and a second database
// with a budget too small for any entry (constant admit/reject churn).
// Every batch's results must byte-match an uncached one-worker run.
func TestCacheConcurrentStress(t *testing.T) {
	seq := csedb.Open(csedb.Options{CSE: noCSE(), CacheBudget: -1, ExecParallelism: 1})
	if err := seq.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	want, err := seq.Run(example1SQL)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"default_budget", 0},
		{"tiny_budget", 64}, // smaller than any spool: every admit rejects
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openCached(t, withCSE(), tc.budget)
			const readers = 6
			var wg sync.WaitGroup
			errc := make(chan error, readers)
			results := make([]*csedb.BatchResult, readers)
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						res, err := db.Run(example1SQL)
						if err != nil {
							errc <- fmt.Errorf("reader %d run %d: %w", w, i, err)
							return
						}
						results[w] = res
					}
				}(w)
			}
			// Version-bumping writer: Touch changes no rows, so results stay
			// comparable, but every bump invalidates the cached entry — some
			// bumps land between a reader's version snapshot and its Admit,
			// leaving a stale-keyed entry the next Lookup must reject.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					db.Store().Touch("lineitem")
				}
			}()
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			for w, res := range results {
				if res == nil {
					continue // reader failed; reported above
				}
				t.Run(fmt.Sprintf("reader%d", w), func(t *testing.T) {
					compareResults(t, want, res)
				})
			}
			s := db.ResultCache().Stats()
			if s.Hits+s.Misses == 0 {
				t.Error("no cache lookups recorded under stress")
			}
			if tc.budget == 64 && s.Entries != 0 {
				t.Errorf("tiny budget admitted %d entries", s.Entries)
			}
		})
	}
}
