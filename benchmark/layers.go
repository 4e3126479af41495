package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cache"
)

// layerCounts adds up the counters the layers already return (core.Stats,
// exec.Stats) over the traced operations.
type layerCounts struct {
	ops, batches                 int
	groups                       int
	signatureSets, candidates    int
	prunedH1, prunedH2, prunedH3 int
	prunedH4                     int
	calls, searched, greedy      int
	spools, spoolRows, spoolHits int
	colSelections, workers       int
	execBusy, execWall           time.Duration
}

func (c *layerCounts) add(outs []*batchOut) {
	c.ops++
	for _, o := range outs {
		c.batches++
		c.groups += o.groups
		c.signatureSets += o.core.SignatureSets
		c.candidates += o.core.Candidates
		c.prunedH1 += o.core.PrunedH1
		c.prunedH2 += o.core.PrunedH2
		c.prunedH3 += o.core.PrunedH3
		c.prunedH4 += o.core.PrunedH4
		c.calls += o.core.CSEOptimizations
		if o.core.SearchStrategy != "" {
			c.searched++
			if o.core.SearchStrategy == "greedy" {
				c.greedy++
			}
		}
		c.spools += len(o.exec.SpoolRows)
		for _, n := range o.exec.SpoolRows {
			c.spoolRows += n
		}
		for _, n := range o.exec.SpoolHits {
			c.spoolHits += n
		}
		c.colSelections += o.exec.ColSelections
		c.workers += o.exec.Workers
		c.execBusy += o.exec.BusyTime
		c.execWall += o.exec.WallTime * time.Duration(o.exec.Workers)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spanMetrics turns the spans of n traced operations into per-operation
// layer times. A *_ms value is the time the caller was blocked in that layer
// (span wall time, children included where the table in README.md says so);
// spool_ms and statement_ms are summed over parallel workers and may exceed
// exec_ms.
func spanMetrics(spans []span, n int) map[string]float64 {
	per := func(v float64) float64 { return ratio(v, float64(n)) }
	wall := sumByName(spans)
	busy := layerBusy(spans)
	alloc := map[string]float64{}
	for _, s := range spans {
		if b, ok := s.Attrs["alloc_bytes"].(uint64); ok {
			alloc[s.Name] += float64(b)
		}
	}
	m := map[string]float64{
		"op_ms":         per(wall["op"]),
		"parse_ms":      per(wall["parse"]),
		"bind_ms":       per(wall["bind"]),
		"memo_ms":       per(wall["memo"]),
		"base_ms":       per(wall["optimize-base"]),
		"candidates_ms": per(wall["candidates"]),
		"search_ms":     per(busy["core.search"]),
		"exec_ms":       per(wall["execute"]),
		"spool_ms":      per(wall["spool"]),
		"statement_ms":  per(wall["statement"]),

		"front_alloc_mb":    per(alloc["parse"]+alloc["bind"]+alloc["memo"]) / (1 << 20),
		"optimize_alloc_mb": per(alloc["optimize"]-alloc["memo"]) / (1 << 20),
		"exec_alloc_mb":     per(alloc["execute"]) / (1 << 20),
	}
	m["front_share"] = ratio(m["parse_ms"]+m["bind_ms"]+m["memo_ms"]+m["base_ms"], m["op_ms"])
	m["core_share"] = ratio(m["candidates_ms"]+m["search_ms"], m["op_ms"])
	m["exec_share"] = ratio(m["exec_ms"], m["op_ms"])
	return m
}

func (c *layerCounts) metrics(m map[string]float64) {
	per := func(v int) float64 { return ratio(float64(v), float64(c.ops)) }
	m["traced_ops"] = float64(c.ops)
	m["memo_groups"] = per(c.groups)
	m["signature_sets"] = per(c.signatureSets)
	m["candidates"] = per(c.candidates)
	m["pruned_h1"] = per(c.prunedH1)
	m["pruned_h2"] = per(c.prunedH2)
	m["pruned_h3"] = per(c.prunedH3)
	m["pruned_h4"] = per(c.prunedH4)
	pruned := c.prunedH1 + c.prunedH2 + c.prunedH3 + c.prunedH4
	m["survivor_ratio"] = ratio(float64(c.candidates), float64(c.candidates+pruned))
	m["optimizer_calls"] = per(c.calls)
	m["ms_per_call"] = ratio(m["search_ms"], m["optimizer_calls"])
	m["calls_per_candidate"] = ratio(float64(c.calls), float64(c.candidates))
	m["greedy_ratio"] = ratio(float64(c.greedy), float64(c.searched))
	m["spool_rows"] = per(c.spoolRows)
	m["spool_hits_per_spool"] = ratio(float64(c.spoolHits), float64(c.spools))
	m["col_selections"] = per(c.colSelections)
	m["exec_workers"] = ratio(float64(c.workers), float64(c.batches))
	m["exec_utilization"] = ratio(c.execBusy.Seconds(), c.execWall.Seconds())
}

// cacheMetrics reports the result cache's work between two snapshots, per
// operation where it is a count of work.
func cacheMetrics(m map[string]float64, before, after cache.Stats, ops int) {
	lookups := float64(after.Hits + after.Misses - before.Hits - before.Misses)
	m["cache_lookups"] = ratio(lookups, float64(ops))
	m["cache_hit_ratio"] = ratio(float64(after.Hits-before.Hits), lookups)
	m["cache_invalidations"] = ratio(float64(after.Invalidations-before.Invalidations), float64(ops))
	m["cache_evictions"] = ratio(float64(after.Evictions-before.Evictions), float64(ops))
	m["cache_rejected"] = ratio(float64(after.Rejected-before.Rejected), float64(ops))
	m["cache_bytes"] = float64(after.Bytes)
}

// trace runs the workload's cycles by the three paths in turn and derives
// the per-layer metrics from the traced third.
func (w *inproc) trace(ctx context.Context, d time.Duration) (*section, map[string]float64, *tracer, error) {
	tr := &tracer{start: time.Now()}
	lat := map[path]*latencies{viaFacade: {}, viaLayers: {}, viaTraced: {}}
	var counts layerCounts
	var cache0 cache.Stats
	if c := w.db.ResultCache(); c != nil {
		cache0 = c.Stats()
	}
	// Every path gets at least one whole cycle, however long a cycle is.
	sec, err := w.loop(ctx, d, len(paths), func(cycle int) path { return paths[cycle%len(paths)] }, tr,
		func(p path, ms float64, outs []*batchOut) {
			lat[p].add(ms)
			if p == viaTraced {
				counts.add(outs)
			}
		})
	if err != nil {
		return nil, nil, nil, err
	}
	if counts.ops == 0 {
		return nil, nil, nil, fmt.Errorf("%s: no traced operation completed", w.label)
	}
	m := spanMetrics(tr.log.spans, counts.ops)
	counts.metrics(m)
	if c := w.db.ResultCache(); c != nil {
		cacheMetrics(m, cache0, c.Stats(), len(sec.lat.ms))
	}
	p50 := func(p path) float64 { return percentile(lat[p].sorted(), 50) }
	fmt.Printf("# %s: lat_p50_ms by path: facade %.4f, layers %.4f, traced layers %.4f\n", w.label, p50(viaFacade), p50(viaLayers), p50(viaTraced))
	m["trace_overhead"] = ratio(p50(viaTraced)-p50(viaLayers), p50(viaLayers))
	m["facade_ms"] = p50(viaFacade) - p50(viaLayers)
	m["insert_ms"] = ratio(sec.writeTime.Seconds()*1000, float64(sec.writes))
	m["rows_inserted"] = float64(sec.rowsIn)
	if w.writeEvery > 0 {
		rebuild, err := w.shadowRebuild(ctx)
		if err != nil {
			return nil, nil, nil, err
		}
		m["shadow_rebuild_ms"] = rebuild
	}
	return sec, m, tr, nil
}

// shadowRebuild measures what the first scan after a write pays beyond a
// steady scan of the same table — the columnar shadow being rebuilt. It runs
// after the traced cycles so that it changes none of them.
func (w *inproc) shadowRebuild(ctx context.Context) (float64, error) {
	const probes = 5
	scan := func() (float64, error) {
		t0 := time.Now()
		_, err := w.db.RunContext(ctx, "select count(*) as n from orders where o_totalprice > 1000")
		return float64(time.Since(t0).Nanoseconds()) / 1e6, err
	}
	var diffs []float64
	for i := 0; i < probes; i++ {
		if _, err := w.write(); err != nil {
			return 0, err
		}
		first, err := scan()
		if err != nil {
			return 0, err
		}
		steady, err := scan()
		if err != nil {
			return 0, err
		}
		diffs = append(diffs, first-steady)
	}
	return median(diffs), nil
}
