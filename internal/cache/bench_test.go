package cache

import (
	"testing"

	"repro/internal/obs"
)

// BenchmarkCacheLookup measures one result-cache probe with metrics on, as
// the executor makes it once per cacheable spool. "hit" serves a fresh
// entry; "mismatch" presents a newer table version, so each op invalidates
// the entry and admits it again: the write path's invalidate-and-refill
// cycle.
func BenchmarkCacheLookup(b *testing.B) {
	box := rowsOfSize(100)
	v := map[string]uint64{"orders": 1, "lineitem": 4}
	b.Run("hit", func(b *testing.B) {
		c := New(0, obs.NewRegistry())
		c.Admit("k", box, v, 1e9)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Lookup("k", v); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("mismatch", func(b *testing.B) {
		c := New(0, obs.NewRegistry())
		newer := map[string]uint64{"orders": 2, "lineitem": 4}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Admit("k", box, v, 1e9)
			if _, ok := c.Lookup("k", newer); ok {
				b.Fatal("hit on a stale entry")
			}
		}
	})
}
