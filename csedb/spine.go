package csedb

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/parser"
)

// The spine: every entry point is a composition of plan and execute, and the
// ones that execute run inside observed. Nothing else in this package binds,
// builds a memo, optimizes, runs a plan, or writes a flight record.

// plan is the one place a parsed batch becomes an optimized one: bind, table
// version snapshot, memo build, CSE optimization. tr and root may each be
// nil; a non-nil root gains the statement count, the "optimize" span and the
// optimizer's phase spans under it.
func (db *DB) plan(stmts []parser.Statement, tr *obs.Trace, root *obs.Span) (*Prepared, error) {
	start := time.Now()
	root.SetAttr("statements", len(stmts))
	batch, err := logical.BuildBatch(stmts, db.cat)
	if err != nil {
		return nil, err
	}
	// Version snapshot before the optimizer reads statistics: the table set
	// is every bound instance in the metadata (a superset of what the final
	// plan scans, which is sound for invalidation).
	seen := map[string]bool{}
	var tables []string
	for i := 0; i < batch.Metadata.NumRels(); i++ {
		name := batch.Metadata.Rel(logical.RelID(i)).Tab.Name
		if !seen[name] {
			seen[name] = true
			tables = append(tables, name)
		}
	}
	sort.Strings(tables)
	versions := db.store.Versions(tables)

	span := root.Child("optimize")
	defer span.End()
	m, err := memo.Build(batch)
	if err != nil {
		return nil, err
	}
	out, err := core.OptimizeObserved(m, db.Settings(), tr, span)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		stmts:        stmts,
		batch:        batch,
		out:          out,
		sourceTables: tables,
		versions:     versions,
		prepareTime:  time.Since(start),
	}, nil
}

// execute is the one place a plan is run. optTime is what this batch spent
// planning — 0 for a prepared plan, whose planning was paid once, elsewhere,
// and must not skew the optimize_seconds histogram. analyze collects
// per-operator actuals and bypasses the result cache, whose hits carry none.
func (db *DB) execute(ctx context.Context, root *obs.Span, p *Prepared, optTime time.Duration, analyze bool) (*BatchResult, error) {
	resultCache := db.cache
	if analyze {
		resultCache = nil
	}
	start := time.Now()
	span := root.Child("execute")
	results, stats, err := exec.RunWithOptions(ctx, p.out.Result, p.batch.Metadata, db.store, exec.Options{
		Parallelism: db.opts.ExecParallelism,
		ChunkSize:   db.opts.ExecChunkSize,
		Analyze:     analyze,
		Cache:       resultCache,
		Span:        span,
		NoColPlane:  db.opts.DisableColPlane,
	})
	if err != nil {
		span.End()
		return nil, err
	}
	span.SetAttr("spools", len(stats.SpoolRows))
	span.SetAttr("spools_cached", stats.CacheHits())
	span.End()
	execTime := time.Since(start)
	db.recordMetrics(len(results), &p.out.Stats, stats, optTime, execTime)
	if resultCache != nil {
		traceCacheEvents(p.out.Trace, p.out.Result, stats)
	}
	return &BatchResult{
		Statements:    results,
		Stats:         p.out.Stats,
		OptimizeTime:  optTime,
		ExecTime:      execTime,
		EstimatedCost: p.out.Result.Cost,
		ExecStats:     stats,
		Trace:         p.out.Trace,
	}, nil
}

// observed runs one executing entry point's stages under the "batch" root
// span and, whatever they return, closes the span tree and leaves exactly
// one flight record: a failed batch is exactly the one a post-hoc
// investigation wants to see, so its error lands on the root span, its
// unfinished spans are closed and tagged, and it is recorded all the same.
func (db *DB) observed(stages func(root *obs.Span) (*BatchResult, error)) (*BatchResult, error) {
	start := time.Now()
	rec := db.newSpanRecorder()
	root := rec.StartSpan("batch")
	res, err := stages(root)
	record := &obs.BatchRecord{Start: start}
	if err != nil {
		root.SetAttr("error", err.Error())
		record.Err = err.Error()
	} else {
		for _, r := range res.Statements {
			record.Rows += len(r.Rows)
		}
		root.SetAttr("rows", record.Rows)
		root.End()
		record.Optimize = res.OptimizeTime
		record.Exec = res.ExecTime
		record.Statements = len(res.Statements)
		record.Candidates = res.Stats.Candidates
		record.UsedCSEs = len(res.Stats.UsedCSEs)
		record.SpoolsCached = res.ExecStats.CacheHits()
		record.SpoolsMaterialized = len(res.ExecStats.SpoolRows) - record.SpoolsCached
	}
	rec.Finish()
	record.Spans = rec.Tree()
	if res != nil {
		res.Spans = record.Spans
	}
	record.Wall = time.Since(start)
	db.flight.Record(record)
	return res, err
}

// parse is parser.Parse under a "parse" span.
func parse(root *obs.Span, sql string) ([]parser.Statement, error) {
	span := root.Child("parse")
	defer span.End()
	stmts, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	span.SetAttr("statements", len(stmts))
	return stmts, nil
}

// newTrace returns a fresh trace when tracing is on, else nil (which
// disables every trace hook in the optimizer).
func (db *DB) newTrace() *obs.Trace {
	if !db.opts.Tracing {
		return nil
	}
	return obs.NewTrace()
}

// newSpanRecorder returns a fresh span recorder when span tracing is on, else
// nil (which disables every span hook down the whole stack).
func (db *DB) newSpanRecorder() *obs.SpanRecorder {
	if !db.opts.SpanTracing {
		return nil
	}
	return obs.NewSpanRecorder()
}

// recordMetrics updates the registry after one executed batch.
func (db *DB) recordMetrics(nStatements int, stats *core.Stats, es *exec.Stats, optTime, execTime time.Duration) {
	r := db.metrics
	r.Counter("csedb_batches_total").Inc()
	r.Counter("csedb_statements_total").Add(int64(nStatements))
	r.Counter("cse_candidates_total").Add(int64(stats.Candidates))
	r.Counter("cse_used_total").Add(int64(len(stats.UsedCSEs)))
	r.Counter("cse_reoptimizations_total").Add(int64(stats.CSEOptimizations))
	r.Counter("cse_pruned_h1_total").Add(int64(stats.PrunedH1))
	r.Counter("cse_pruned_h2_total").Add(int64(stats.PrunedH2))
	r.Counter("cse_pruned_h3_total").Add(int64(stats.PrunedH3))
	r.Counter("cse_pruned_h4_total").Add(int64(stats.PrunedH4))
	for _, rows := range es.SpoolRows {
		r.Counter("spool_rows_total").Add(int64(rows))
	}
	r.Counter("exec_waves_total").Add(int64(len(es.Waves)))
	r.Counter("exec_morsels_total").Add(int64(es.Morsels))
	r.Counter("exec_parallel_ops_total").Add(int64(es.ParallelOps))
	if es.FallbackReason != "" {
		r.Counter("exec_sequential_fallbacks_total").Inc()
	}
	r.Counter("exec_spools_cached_total").Add(int64(es.CacheHits()))
	r.Counter("exec_col_selections_total").Add(int64(es.ColSelections))
	r.Counter("exec_col_hash_passes_total").Add(int64(es.ColHashPasses))
	r.Gauge("exec_worker_utilization").Set(es.Utilization())
	if optTime > 0 {
		r.Histogram("optimize_seconds").Observe(optTime.Seconds())
		r.Counter("optimize_groups_recosted_total").Add(int64(stats.Work.GroupsRecosted))
		r.Counter("optimize_root_children_refolded_total").Add(int64(stats.Work.RootChildrenRefolded))
	}
	r.Histogram("exec_seconds").Observe(execTime.Seconds())
	for id, d := range es.SpoolTimes {
		if !es.SpoolCached[id] {
			r.HistogramWith("spool_materialize_seconds", spoolMaterializeBounds).Observe(d.Seconds())
		}
	}
}

// spoolMaterializeBounds buckets spool materialization times: sub-millisecond
// spools dominate the test workloads, so the default seconds-scale buckets
// would be useless on the left end.
var spoolMaterializeBounds = []float64{1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1, 5}

// traceCacheEvents appends one EvCache event per executed spool to the
// batch's optimizer trace, recording whether the cross-batch result cache
// served it. No-op when tracing is off.
func traceCacheEvents(tr *obs.Trace, res *opt.Result, es *exec.Stats) {
	if tr == nil {
		return
	}
	ids := make([]int, 0, len(es.SpoolRows))
	for id := range es.SpoolRows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		outcome := "miss"
		if es.SpoolCached[id] {
			outcome = "hit"
		}
		label := fmt.Sprintf("CSE%d", id)
		if c := res.CSEs[id]; c != nil && c.SpecKey == "" {
			outcome = "uncacheable"
		}
		tr.Add(obs.Event{
			Kind:   obs.EvCache,
			Label:  label,
			Reason: outcome,
			Values: map[string]float64{"rows": float64(es.SpoolRows[id])},
		})
	}
}
