// Package cache implements the engine's cross-batch caches on one generic,
// version-checked LRU (LRU): the spool result cache here (Cache) and the
// server's plan-shape cache. The result cache keeps materialized CSE work
// tables across query batches, keyed by the candidate's batch-independent
// normalized spec (core spec.cacheKey, carried on opt.CSEPlan.SpecKey).
//
// Consistency is version-based. Every entry records the monotonic version
// counter of each base table its plan read (storage.Store versions, bumped
// by Create/Insert/Drop/Touch), snapshotted *before* the spool was computed.
// A lookup whose current versions differ from the entry's — any table, any
// direction — removes the entry and reports a miss, so a write racing a
// materialization at worst produces an entry that the next lookup discards.
//
// Admission is cost-based, reusing the engine's H2-style bound: an entry is
// admitted only when reading it back (opt.SpoolReadCost over the actual row
// set) is cheaper than recomputing its plan (the plan's estimated cost), and
// only when it fits the byte budget. Eviction is LRU by bytes.
//
// Cached results are shared by reference, never copied: entries hold a
// storage.ColBox — the row set plus its lazily built columnar shadow — so a
// hit hands back both forms without copying or re-encoding. The executor
// already treats spool rows as immutable (parallel consumers of one batch
// share them), and the cache inherits that invariant.
package cache

import (
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// DefaultBudget is the byte budget used when a Cache is created with a
// non-positive budget: 64 MiB, small enough to be harmless in tests and
// large enough to hold every spool the bench workloads produce.
const DefaultBudget = 64 << 20

// lookupBounds are the cache_lookup_seconds histogram buckets. Lookups are
// map-probe fast — microseconds, not milliseconds — so the default
// seconds-scale buckets would collapse every observation into the first one.
var lookupBounds = []float64{1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 1e-3, 1e-2}

// Stats is a point-in-time snapshot of cache state and counters.
type Stats struct {
	Entries       int
	Bytes         int64
	Budget        int64
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	Rejected      int64
}

// Cache is the spool result cache: an LRU of boxed row sets costed in bytes,
// plus the H2-style admission rule. All methods are safe for concurrent use.
type Cache struct {
	lru      *LRU[*storage.ColBox]
	rejected atomic.Int64
	metrics  *obs.Registry
}

// New returns an empty cache with the given byte budget (non-positive means
// DefaultBudget). The registry receives hit/miss/eviction/invalidation/
// rejection counters, a bytes gauge, and lookup and hit latency histograms;
// nil disables metrics.
func New(budget int64, metrics *obs.Registry) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Cache{lru: NewLRU[*storage.ColBox](budget, "cache", "bytes", metrics), metrics: metrics}
}

// Lookup returns the cached result for a key when present and still valid
// against the caller's current version snapshot. A version mismatch removes
// the entry (counted as an invalidation) and reports a miss, so hits+misses
// always equals lookups.
func (c *Cache) Lookup(key string, versions map[string]uint64) (*storage.ColBox, bool) {
	start := time.Now()
	box, ok := c.lru.Get(key, func([]string) map[string]uint64 { return versions })
	if c.metrics != nil {
		d := time.Since(start).Seconds()
		c.metrics.HistogramWith("cache_lookup_seconds", lookupBounds).Observe(d)
		if ok {
			c.metrics.Histogram("cache_hit_seconds").Observe(d)
		}
	}
	return box, ok
}

// Admit offers a freshly materialized spool result to the cache. versions
// must be the source-table snapshot taken before the plan ran; the cache
// keeps it, so the caller must not modify it afterwards. The entry is
// rejected when reading it back (opt.SpoolReadCost over its rows and bytes)
// would not beat recomputing it (computeCost, the plan's estimate) — the
// H2-style bound — or when it alone exceeds the budget; otherwise LRU
// entries are evicted until it fits. Reports whether the entry was admitted.
func (c *Cache) Admit(key string, box *storage.ColBox, versions map[string]uint64, computeCost float64) bool {
	if key == "" || box == nil {
		return false
	}
	rows := box.Rows()
	var bytes int64
	for _, r := range rows {
		bytes += int64(sqltypes.RowSize(r))
	}
	if opt.SpoolReadCost(float64(len(rows)), float64(bytes)) >= computeCost || !c.lru.Put(key, box, bytes, versions) {
		c.rejected.Add(1)
		if c.metrics != nil {
			c.metrics.Counter("cache_rejected_total").Inc()
		}
		return false
	}
	return true
}

// Clear drops every entry.
func (c *Cache) Clear() { c.lru.Clear() }

// EntryInfo describes one cached entry for inspection (the debug server's
// /cache endpoint): its spec key, row/byte footprint, and the source-table
// version snapshot it validates against.
type EntryInfo struct {
	Key      string            `json:"key"`
	Rows     int               `json:"rows"`
	Bytes    int64             `json:"bytes"`
	Versions map[string]uint64 `json:"versions"`
}

// Entries snapshots the cached entries in LRU order, most recently used
// first. Row data is not included — only footprints and identity.
func (c *Cache) Entries() []EntryInfo {
	entries := c.lru.snapshot()
	out := make([]EntryInfo, len(entries))
	for i, e := range entries {
		out[i] = EntryInfo{Key: e.key, Rows: len(e.value.Rows()), Bytes: e.cost, Versions: maps.Clone(e.versions)}
	}
	return out
}

// Stats snapshots the cache's state and counters.
func (c *Cache) Stats() Stats {
	s := c.lru.Stats()
	s.Rejected = c.rejected.Load()
	return s
}

// String renders a one-line summary for the shell's \cache command.
func (s Stats) String() string {
	return fmt.Sprintf("%d entries, %d/%d bytes; %d hits, %d misses, %d invalidations, %d evictions, %d rejected",
		s.Entries, s.Bytes, s.Budget, s.Hits, s.Misses, s.Invalidations, s.Evictions, s.Rejected)
}
