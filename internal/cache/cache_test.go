package cache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// rowsOfSize builds a boxed result of n rows whose total RowSize is
// deterministic, for budget-sensitive tests.
func rowsOfSize(n int) *storage.ColBox {
	out := make([]sqltypes.Row, n)
	for i := range out {
		out[i] = sqltypes.Row{sqltypes.NewInt(int64(i))}
	}
	return storage.NewColBox(out)
}

func rowsBytes(box *storage.ColBox) int64 {
	var b int64
	for _, r := range box.Rows() {
		b += int64(sqltypes.RowSize(r))
	}
	return b
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(0, nil)
	v := map[string]uint64{"orders": 1}
	if _, ok := c.Lookup("k", v); ok {
		t.Fatal("lookup on empty cache hit")
	}
	rows := rowsOfSize(3)
	if !c.Admit("k", rows, v, 100) {
		t.Fatal("admit rejected a cheap entry")
	}
	got, ok := c.Lookup("k", v)
	if !ok || len(got.Rows()) != 3 {
		t.Fatalf("lookup after admit: ok=%v box=%v", ok, got)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", s)
	}
	if s.Bytes != rowsBytes(rows) {
		t.Fatalf("bytes = %d, want %d", s.Bytes, rowsBytes(rows))
	}
}

func TestVersionMismatchInvalidates(t *testing.T) {
	c := New(0, nil)
	c.Admit("k", rowsOfSize(2), map[string]uint64{"orders": 1, "lineitem": 4}, 100)

	// Any changed, missing, or extra table version must invalidate.
	for _, v := range []map[string]uint64{
		{"orders": 2, "lineitem": 4},
		{"orders": 1},
		{"orders": 1, "lineitem": 4, "part": 0},
	} {
		c.Admit("k", rowsOfSize(2), map[string]uint64{"orders": 1, "lineitem": 4}, 100)
		if _, ok := c.Lookup("k", v); ok {
			t.Fatalf("lookup with versions %v hit a stale entry", v)
		}
		// The stale entry must be gone, not just skipped.
		if got := c.Stats().Entries; got != 0 {
			t.Fatalf("stale entry retained after mismatch %v: %d entries", v, got)
		}
	}
	if inv := c.Stats().Invalidations; inv != 3 {
		t.Fatalf("invalidations = %d, want 3", inv)
	}
}

func TestAdmitCostBound(t *testing.T) {
	c := New(0, nil)
	// Reading back at least as expensive as recomputing: reject (H2 bound).
	box := rowsOfSize(1)
	readCost := opt.SpoolReadCost(1, float64(rowsBytes(box)))
	if c.Admit("k", box, nil, readCost) {
		t.Fatal("admitted an entry whose read cost matches recompute cost")
	}
	if c.Admit("", rowsOfSize(1), nil, 100) {
		t.Fatal("admitted an entry with an empty key")
	}
	if s := c.Stats(); s.Rejected != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 rejected, 0 entries", s)
	}
}

func TestLRUEviction(t *testing.T) {
	one := rowsBytes(rowsOfSize(1))
	c := New(3*one, nil)
	v := map[string]uint64{}
	for i := 0; i < 3; i++ {
		c.Admit(fmt.Sprintf("k%d", i), rowsOfSize(1), v, 100)
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.Lookup("k0", v); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Admit("k3", rowsOfSize(1), v, 100)
	if _, ok := c.Lookup("k1", v); ok {
		t.Fatal("k1 survived eviction; LRU order wrong")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Lookup(k, v); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 3 || s.Bytes != 3*one {
		t.Fatalf("stats = %+v, want 1 eviction, 3 entries, %d bytes", s, 3*one)
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	one := rowsBytes(rowsOfSize(1))
	c := New(one, nil)
	if c.Admit("big", rowsOfSize(10), nil, 1e9) {
		t.Fatal("admitted an entry larger than the whole budget")
	}
	if s := c.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
}

func TestSetBudgetEvicts(t *testing.T) {
	one := rowsBytes(rowsOfSize(1))
	c := New(4*one, nil)
	for i := 0; i < 4; i++ {
		c.Admit(fmt.Sprintf("k%d", i), rowsOfSize(1), nil, 100)
	}
	c.SetBudget(2 * one)
	s := c.Stats()
	if s.Entries != 2 || s.Bytes != 2*one || s.Evictions != 2 {
		t.Fatalf("after SetBudget: %+v, want 2 entries, %d bytes, 2 evictions", s, 2*one)
	}
	// Most recently admitted entries survive.
	for _, k := range []string{"k2", "k3"} {
		if _, ok := c.Lookup(k, nil); !ok {
			t.Fatalf("%s evicted by SetBudget; LRU order wrong", k)
		}
	}
}

func TestClear(t *testing.T) {
	c := New(0, nil)
	c.Admit("k", rowsOfSize(5), nil, 100)
	c.Clear()
	s := c.Stats()
	if s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("after Clear: %+v, want empty", s)
	}
	if _, ok := c.Lookup("k", nil); ok {
		t.Fatal("lookup hit after Clear")
	}
}

func TestReAdmitReplaces(t *testing.T) {
	c := New(0, nil)
	c.Admit("k", rowsOfSize(1), map[string]uint64{"t": 1}, 100)
	c.Admit("k", rowsOfSize(4), map[string]uint64{"t": 2}, 100)
	box, ok := c.Lookup("k", map[string]uint64{"t": 2})
	if !ok || len(box.Rows()) != 4 {
		t.Fatalf("re-admit did not replace: ok=%v box=%v", ok, box)
	}
	if s := c.Stats(); s.Entries != 1 || s.Bytes != rowsBytes(rowsOfSize(4)) {
		t.Fatalf("stats after replace = %+v", s)
	}
}

func TestMetricsWiring(t *testing.T) {
	r := obs.NewRegistry()
	c := New(0, r)
	v := map[string]uint64{"t": 1}
	c.Admit("k", rowsOfSize(2), v, 100)
	c.Lookup("k", v)                   // hit
	c.Lookup("absent", v)              // miss
	c.Lookup("k", map[string]uint64{}) // invalidation + miss
	c.Admit("k2", rowsOfSize(1), v, 0) // rejected
	snap := r.Snapshot()
	want := map[string]float64{
		"cache_hits_total":          1,
		"cache_misses_total":        2,
		"cache_invalidations_total": 1,
		"cache_rejected_total":      1,
	}
	for name, val := range want {
		if snap[name] != val {
			t.Errorf("%s = %v, want %v", name, snap[name], val)
		}
	}
	if snap["cache_bytes"] != 0 && snap["cache_bytes"] != float64(rowsBytes(rowsOfSize(2))) {
		// Invalidation removed the only entry, so the gauge should be 0.
		t.Errorf("cache_bytes = %v", snap["cache_bytes"])
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(0, nil)
	v := map[string]uint64{"t": 1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%7)
				if box, ok := c.Lookup(key, v); ok {
					if len(box.Rows()) != 3 {
						t.Errorf("cached rows len = %d, want 3", len(box.Rows()))
						return
					}
				} else {
					c.Admit(key, rowsOfSize(3), v, 100)
				}
				if i%50 == 0 {
					switch g % 3 {
					case 0:
						c.Clear()
					case 1:
						c.SetBudget(int64(1 + i*100))
					default:
						c.Stats()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLRUStaleCheckKeepsNewerEntry pins that the version check, which runs
// outside the lock, removes only the entry it checked: an entry admitted
// for the key while the check ran survives and is served next.
func TestLRUStaleCheckKeepsNewerEntry(t *testing.T) {
	l := NewLRU[string](10, "t", "entries", nil)
	l.Put("k", "old", 1, map[string]uint64{"t": 1})
	_, ok := l.Get("k", func(tables []string) map[string]uint64 {
		l.Put("k", "new", 1, map[string]uint64{"t": 2})
		return map[string]uint64{"t": 2}
	})
	if ok {
		t.Fatal("stale entry served")
	}
	v, ok := l.Get("k", func([]string) map[string]uint64 { return map[string]uint64{"t": 2} })
	if !ok || v != "new" {
		t.Fatalf("Get after the stale check = %q, %v; want the newer entry", v, ok)
	}
	if s := l.Stats(); s.Invalidations != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation, 1 hit, 1 entry", s)
	}
}
