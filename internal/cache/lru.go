package cache

import (
	"container/list"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// LRU is a mutex-guarded least-recently-used map whose values were computed
// from stored tables. It backs both cross-batch caches: the spool result
// cache (Cache, cost in bytes) and the server's plan-shape cache (cost 1).
//
// Entries are immutable — value, cost, and a snapshot of the versions of the
// tables the value was computed from — and Put replaces a key's entry rather
// than editing it, so an entry read under the lock stays valid after it.
// Once the total cost exceeds the budget, the least recently used entries
// are evicted.
//
// Staleness has one rule: Get serves an entry only while the current
// versions of its tables equal its snapshot. The check runs outside the lock
// (fetching versions takes the store's lock) and removes the stale entry
// only if it is still the one checked.
type LRU[V any] struct {
	mu      sync.Mutex
	budget  int64
	cost    int64
	entries map[string]*list.Element // values are *lruEntry[V]
	order   *list.List               // front = most recently used

	counts  [numCounters]atomic.Int64
	metrics *obs.Registry
	names   [numCounters]string // <prefix>_<counter>_total
	gauge   string              // <prefix>_<unit>: the total cost
}

type lruEntry[V any] struct {
	key      string
	value    V
	cost     int64
	tables   []string
	versions map[string]uint64
}

const (
	hits = iota
	misses
	invalidations
	evictions
	numCounters
)

var counterNames = [numCounters]string{"hits", "misses", "invalidations", "evictions"}

// NewLRU returns an empty LRU holding entries of total cost up to budget.
// Its counters are exported to metrics (nil disables them) as
// <prefix>_hits_total, _misses_total, _invalidations_total and
// _evictions_total, and its total cost as the gauge <prefix>_<unit>.
func NewLRU[V any](budget int64, prefix, unit string, metrics *obs.Registry) *LRU[V] {
	l := &LRU[V]{
		budget:  budget,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		metrics: metrics,
		gauge:   prefix + "_" + unit,
	}
	for i, n := range counterNames {
		l.names[i] = prefix + "_" + n + "_total"
	}
	return l
}

// Get returns the value under key while it is fresh: current, given the
// entry's tables, must return versions equal to the entry's snapshot. A
// stale entry is removed and counted as an invalidation and a miss, so
// hits+misses always equals lookups.
func (l *LRU[V]) Get(key string, current func(tables []string) map[string]uint64) (V, bool) {
	var zero V
	l.mu.Lock()
	el, ok := l.entries[key]
	if !ok {
		l.mu.Unlock()
		l.count(misses)
		return zero, false
	}
	l.order.MoveToFront(el)
	e := el.Value.(*lruEntry[V])
	l.mu.Unlock()
	// The staleness rule: fresh only while every table has the same version
	// now and none was added or dropped.
	if !maps.Equal(e.versions, current(e.tables)) {
		l.mu.Lock()
		if l.entries[key] == el {
			l.removeLocked(el)
			l.setGauge()
		}
		l.mu.Unlock()
		l.count(invalidations)
		l.count(misses)
		return zero, false
	}
	l.count(hits)
	return e.value, true
}

// Put admits value under key with the given cost and table-version snapshot,
// replacing any entry the key had, then evicts from the least recently used
// end until the total cost fits the budget. The LRU keeps versions, so the
// caller must not modify it afterwards. An entry costing more than the whole
// budget is not admitted; Put reports whether the entry was.
func (l *LRU[V]) Put(key string, value V, cost int64, versions map[string]uint64) bool {
	tables := make([]string, 0, len(versions))
	for t := range versions {
		tables = append(tables, t)
	}
	e := &lruEntry[V]{key: key, value: value, cost: cost, tables: tables, versions: versions}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cost > l.budget {
		return false
	}
	if old, ok := l.entries[key]; ok {
		l.removeLocked(old)
	}
	l.entries[key] = l.order.PushFront(e)
	l.cost += cost
	l.shrinkLocked()
	return true
}

// Remove drops the entry under key, if any.
func (l *LRU[V]) Remove(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		l.removeLocked(el)
		l.setGauge()
	}
}

// SetBudget changes the budget and evicts until the entries fit it.
func (l *LRU[V]) SetBudget(budget int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.budget = budget
	l.shrinkLocked()
}

// Clear drops every entry without counting evictions.
func (l *LRU[V]) Clear() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = make(map[string]*list.Element)
	l.order.Init()
	l.cost = 0
	l.setGauge()
}

// Len returns the number of entries.
func (l *LRU[V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Stats snapshots the LRU's state and counters; Bytes is the total cost in
// the caller's units.
func (l *LRU[V]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Entries:       len(l.entries),
		Bytes:         l.cost,
		Budget:        l.budget,
		Hits:          l.counts[hits].Load(),
		Misses:        l.counts[misses].Load(),
		Evictions:     l.counts[evictions].Load(),
		Invalidations: l.counts[invalidations].Load(),
	}
}

// snapshot returns the entries, most recently used first. Entries are
// immutable, so callers may read them without the lock.
func (l *LRU[V]) snapshot() []*lruEntry[V] {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*lruEntry[V], 0, l.order.Len())
	for el := l.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[V]))
	}
	return out
}

// shrinkLocked evicts from the tail until the total cost fits the budget.
func (l *LRU[V]) shrinkLocked() {
	for l.cost > l.budget && l.order.Len() > 0 {
		l.removeLocked(l.order.Back())
		l.count(evictions)
	}
	l.setGauge()
}

func (l *LRU[V]) removeLocked(el *list.Element) {
	e := l.order.Remove(el).(*lruEntry[V])
	delete(l.entries, e.key)
	l.cost -= e.cost
}

func (l *LRU[V]) count(c int) {
	l.counts[c].Add(1)
	if l.metrics != nil {
		l.metrics.Counter(l.names[c]).Inc()
	}
}

func (l *LRU[V]) setGauge() {
	if l.metrics != nil {
		l.metrics.Gauge(l.gauge).Set(float64(l.cost))
	}
}
