// Package csedb is the public API of the engine: an in-memory SQL database
// with a transformation-based optimizer that detects and exploits similar
// subexpressions (covering subexpressions, CSEs) across a query batch,
// within nested queries, and during materialized-view maintenance —
// reproducing Zhou, Larson, Freytag & Lehner, "Efficient Exploitation of
// Similar Subexpressions for Query Processing" (SIGMOD 2007).
//
// Basic usage:
//
//	db := csedb.Open(csedb.Options{})
//	if err := db.LoadTPCH(0.01, 1); err != nil { ... }
//	res, err := db.Run("select ...; select ...;")
//
// A batch of statements separated by semicolons is optimized as one unit, so
// similar subexpressions among the statements are computed once and reused.
package csedb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/views"
)

// Options configures a database.
type Options struct {
	// CSE configures the covering-subexpression phase; the zero value means
	// core.DefaultSettings() (CSE on, heuristics on).
	CSE *core.Settings

	// ExecParallelism sets the executor worker-pool size: 0 (the default)
	// means parallel execution on with runtime.GOMAXPROCS(0) workers; 1
	// forces the sequential executor (a determinism-debugging fallback);
	// n > 1 uses n workers. The same pool budget governs both batch-level
	// scheduling (spool waves, concurrent statements) and intra-operator
	// morsel parallelism.
	ExecParallelism int

	// ExecChunkSize sets the executor's morsel granularity in rows; 0 (the
	// default) means exec.DefaultChunkSize. Exposed for testing — results
	// are byte-identical for any chunk size.
	ExecChunkSize int

	// Tracing records a structured optimizer decision trace on every batch
	// (BatchResult.Trace / core.Output.Trace). Off by default: the untraced
	// optimizer path carries no trace hooks.
	Tracing bool

	// CacheBudget configures the cross-batch spool result cache's byte
	// budget: 0 (the default) enables it at cache.DefaultBudget, a positive
	// value enables it at that budget, and a negative value disables the
	// cache entirely.
	CacheBudget int64

	// SpanTracing records a span tree on every batch: parse, optimization
	// phases (candidate formation with H1–H4 prune counts, subset
	// reoptimization), spool waves, per-spool materialization with cache
	// outcomes and wait times, and per-statement execution. The tree is
	// returned on BatchResult.Spans, retained by the flight recorder, and
	// exportable in Chrome trace-event format. Off by default: the untraced
	// path pays one nil check per span site.
	SpanTracing bool

	// DisableColPlane forces the row-at-a-time execution path, disabling
	// the columnar data plane (typed column chunks plus selection-vector
	// kernels). The row path is the engine's differential oracle; this knob
	// exists for debugging and for row-vs-column benchmarking (csedb's
	// -colplane=false and the seq-row cases of the internal/exec
	// microbenchmarks).
	DisableColPlane bool
}

// DB is an in-memory database instance. Its configuration is fixed at Open:
// nothing writes the Options afterwards, so every getter is safe to call from
// any goroutine. To run with different options, open another DB over the
// same data with OpenOn. Read-only queries (Run on SELECT batches, Optimize,
// Explain) are safe to call concurrently: every call builds its own
// metadata, memo, optimizer, and execution context, and the row store takes
// a read lock. DDL (CreateTable, CREATE MATERIALIZED VIEW) and mutations
// (Insert, InsertWithViewMaintenance) must be serialized by the caller and
// must not overlap reads.
type DB struct {
	cat      *catalog.Catalog
	store    *storage.Store
	opts     Options // as passed to Open, with CSE resolved
	views    *views.Manager
	deltaSeq int
	metrics  *obs.Registry
	cache    *cache.Cache
	flight   *obs.FlightRecorder

	debugMu sync.Mutex
	debug   *debugServer
}

// Row re-exports the value tuple type for insertion APIs.
type Row = sqltypes.Row

// Open returns an empty database.
func Open(opts Options) *DB {
	return OpenOn(catalog.New(), storage.NewStore(), opts)
}

// OpenOn returns a database wired onto an existing catalog and row store.
// The serving layer, the differential harness and the shell's \set use it to
// run several DB configurations over one shared data set; the caller owns
// write serialization across all databases sharing the store. Each DB keeps
// its own metrics, flight recorder, result cache and materialized-view
// registry.
func OpenOn(cat *catalog.Catalog, store *storage.Store, opts Options) *DB {
	settings := core.DefaultSettings()
	if opts.CSE != nil {
		settings = *opts.CSE
	}
	opts.CSE = &settings
	db := &DB{
		cat:     cat,
		store:   store,
		opts:    opts,
		views:   views.NewManager(),
		metrics: obs.NewRegistry(),
		flight:  obs.NewFlightRecorder(obs.DefaultFlightCapacity, obs.DefaultSlowThreshold),
	}
	if opts.CacheBudget >= 0 {
		db.cache = cache.New(opts.CacheBudget, db.metrics)
	}
	return db
}

// Settings returns the CSE settings.
func (db *DB) Settings() core.Settings { return *db.opts.CSE }

// ExecParallelism returns the executor worker-pool setting (0 = default
// parallel, 1 = sequential, n > 1 = n workers).
func (db *DB) ExecParallelism() int { return db.opts.ExecParallelism }

// ColPlane reports whether the columnar data plane is in force (the
// default). When false, batches run the row-at-a-time reference path.
func (db *DB) ColPlane() bool { return !db.opts.DisableColPlane }

// ExecChunkSize returns the executor morsel granularity (0 = default).
func (db *DB) ExecChunkSize() int { return db.opts.ExecChunkSize }

// Metrics exposes the database's metrics registry. It is always collecting
// (a handful of atomic updates per batch); render it with Dump or Snapshot.
func (db *DB) Metrics() *obs.Registry { return db.metrics }

// FlightRecorder exposes the bounded in-memory record of recent batches. It
// is always on; span trees appear on its records only while span tracing is
// enabled.
func (db *DB) FlightRecorder() *obs.FlightRecorder { return db.flight }

// ResultCache exposes the cross-batch spool result cache; nil when disabled.
func (db *DB) ResultCache() *cache.Cache { return db.cache }

// Catalog exposes the schema catalog (read-only use expected).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Store exposes the row store (read-only use expected).
func (db *DB) Store() *storage.Store { return db.store }

// LoadTPCH generates the TPC-H-shaped benchmark database at the given scale
// factor with a deterministic seed.
func (db *DB) LoadTPCH(scaleFactor float64, seed int64) error {
	for _, tab := range tpch.Schemas() {
		if err := db.cat.Add(tab); err != nil {
			return err
		}
	}
	return tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: seed}, db.cat, db.store)
}

// CreateTable registers an empty table.
func (db *DB) CreateTable(name string, cols []catalog.Column) error {
	ctab := &catalog.Table{Name: name, Cols: cols}
	if err := db.cat.Add(ctab); err != nil {
		return err
	}
	// Analyze even the empty table so per-column stats start at their
	// floors instead of zero values that skew selectivity math.
	storage.AnalyzeTable(ctab, db.store.Create(name))
	return nil
}

// Insert appends rows to a table and refreshes its statistics. It does not
// maintain materialized views; use InsertWithViewMaintenance for that.
func (db *DB) Insert(table string, rows []Row) error {
	ctab, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	for i, r := range rows {
		if len(r) != len(ctab.Cols) {
			return fmt.Errorf("row %d has %d values, table %s has %d columns", i, len(r), ctab.Name, len(ctab.Cols))
		}
	}
	if err := db.store.Insert(table, rows); err != nil {
		return err
	}
	// Appended rows void any physical ordering guarantee.
	ctab.OrderedBy = nil
	stab, err := db.store.Table(table)
	if err != nil {
		return err
	}
	storage.AnalyzeTable(ctab, stab)
	return nil
}

// BatchResult is the outcome of running a statement batch.
type BatchResult struct {
	// Statements holds per-statement output (empty Rows for DDL).
	Statements []*exec.StatementResult

	// Stats reports what the CSE phase did.
	Stats core.Stats

	// OptimizeTime and ExecTime are wall-clock measurements.
	OptimizeTime time.Duration
	ExecTime     time.Duration

	// EstimatedCost is the chosen plan's cost in optimizer units.
	EstimatedCost float64

	// ExecStats carries the executor's detailed instrumentation: per-spool
	// rows (every CSE is computed exactly once per batch) and wall time,
	// per-statement time, the topological spool schedule, and worker
	// utilization.
	ExecStats *exec.Stats

	// Trace is the optimizer decision trace; nil unless tracing is on.
	Trace *obs.Trace

	// Spans is the batch's span forest (rooted at the "batch" span); nil
	// unless span tracing is on. Render it with obs.ChromeTrace for
	// chrome://tracing.
	Spans []*obs.SpanNode
}

// Run parses, optimizes, and executes a batch of statements. Queries in the
// batch are optimized together; CREATE MATERIALIZED VIEW statements execute
// their defining query and materialize the result.
func (db *DB) Run(sql string) (*BatchResult, error) {
	return db.RunContext(context.Background(), sql)
}

// RunContext is Run with a cancellation context: cancelling it stops the
// executor (including all parallel workers) with the context's error.
func (db *DB) RunContext(ctx context.Context, sql string) (*BatchResult, error) {
	return db.observed(func(root *obs.Span) (*BatchResult, error) {
		stmts, err := parse(root, sql)
		if err != nil {
			return nil, err
		}
		return db.runStatements(ctx, root, stmts)
	})
}

// runStatements plans and executes a parsed batch, then materializes any
// views it defines. View maintenance enters here with generated statements,
// so its span tree simply lacks a parse child.
func (db *DB) runStatements(ctx context.Context, root *obs.Span, stmts []parser.Statement) (*BatchResult, error) {
	p, err := db.plan(stmts, db.newTrace(), root)
	if err != nil {
		return nil, err
	}
	res, err := db.execute(ctx, root, p, p.prepareTime, false)
	if err != nil {
		return nil, err
	}
	for i, st := range p.batch.Statements {
		if st.ViewName == "" {
			continue
		}
		if err := db.materializeView(st, stmts[i], p.batch.Metadata, res.Statements[i]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Optimize parses and optimizes a batch without executing it. It returns
// the optimizer output and the bound metadata for plan inspection.
func (db *DB) Optimize(sql string) (*core.Output, *logical.Metadata, error) {
	stmts, err := parser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	p, err := db.plan(stmts, db.newTrace(), nil)
	if err != nil {
		return nil, nil, err
	}
	return p.out, p.batch.Metadata, nil
}

// Explain returns the physical plan for a batch, including any CSE plans.
func (db *DB) Explain(sql string) (string, error) {
	out, md, err := db.Optimize(sql)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if len(out.Stats.CandidateLabels) > 0 {
		fmt.Fprintf(&sb, "CSE candidates considered: %d [%d reoptimizations]\n",
			out.Stats.Candidates, out.Stats.CSEOptimizations)
		for i, l := range out.Stats.CandidateLabels {
			fmt.Fprintf(&sb, "  E%d: %s\n", i+1, l)
		}
	}
	sb.WriteString(out.Result.Format(md))
	return sb.String(), nil
}

func (db *DB) materializeView(st *logical.Statement, astStmt parser.Statement, md *logical.Metadata, res *exec.StatementResult) error {
	cv, ok := astStmt.(*parser.CreateViewStmt)
	if !ok {
		return fmt.Errorf("statement for view %s is not CREATE MATERIALIZED VIEW", st.ViewName)
	}
	view, backing, err := views.Define(st.ViewName, cv.Select, st.Block, md)
	if err != nil {
		return err
	}
	if err := db.cat.Add(backing); err != nil {
		return err
	}
	vt := db.store.Create(backing.Name)
	for _, r := range res.Rows {
		vt.Append(r)
	}
	storage.AnalyzeTable(backing, vt)
	db.views.Add(view)
	return nil
}

// MaintenanceResult reports a view-maintenance run (§6.4).
type MaintenanceResult struct {
	// ViewsMaintained lists the affected materialized views.
	ViewsMaintained []string

	Stats         core.Stats
	OptimizeTime  time.Duration
	ExecTime      time.Duration
	EstimatedCost float64
}

// InsertWithViewMaintenance appends rows to a base table and maintains every
// materialized view referencing it: the inserted rows become a delta table,
// one maintenance query per affected view is generated, and the whole batch
// is optimized together — so similar subexpressions among the maintenance
// expressions are detected and shared exactly like a user query batch.
func (db *DB) InsertWithViewMaintenance(table string, rows []Row) (*MaintenanceResult, error) {
	if err := db.Insert(table, rows); err != nil {
		return nil, err
	}
	out := &MaintenanceResult{}
	affected := db.views.Affected(table)
	if len(affected) == 0 {
		return out, nil
	}
	ctab, err := db.cat.Table(table)
	if err != nil {
		return nil, err
	}

	// Register the delta work table; the optimizer treats it as a regular
	// (small) table whose name is shared by every maintenance expression,
	// which is what makes their signatures match.
	db.deltaSeq++
	deltaName := fmt.Sprintf("delta_%s_%d", strings.ToLower(table), db.deltaSeq)
	delta := &catalog.Table{Name: deltaName, Cols: append([]catalog.Column(nil), ctab.Cols...)}
	if err := db.cat.Add(delta); err != nil {
		return nil, err
	}
	dt := db.store.Create(deltaName)
	for _, r := range rows {
		dt.Append(r)
	}
	storage.AnalyzeTable(delta, dt)
	defer func() {
		db.store.Drop(deltaName)
		_ = db.cat.Drop(deltaName)
	}()

	stmts := make([]parser.Statement, len(affected))
	for i, v := range affected {
		stmts[i] = v.MaintenanceStmt(table, deltaName)
		out.ViewsMaintained = append(out.ViewsMaintained, v.Name)
	}
	res, err := db.observed(func(root *obs.Span) (*BatchResult, error) {
		return db.runStatements(context.Background(), root, stmts)
	})
	if err != nil {
		return nil, fmt.Errorf("maintaining views: %w", err)
	}
	out.Stats = res.Stats
	out.OptimizeTime = res.OptimizeTime
	out.ExecTime = res.ExecTime
	out.EstimatedCost = res.EstimatedCost

	start := time.Now()
	for i, v := range affected {
		if err := db.applyDelta(v, res.Statements[i].Rows); err != nil {
			return nil, err
		}
	}
	out.ExecTime += time.Since(start)
	return out, nil
}

// applyDelta merges a view's delta result into its backing table.
func (db *DB) applyDelta(v *views.View, deltaRows []Row) error {
	backing, err := db.cat.Table(v.BackingName())
	if err != nil {
		return err
	}
	vt, err := db.store.Table(v.BackingName())
	if err != nil {
		return err
	}
	if err := v.Merge(vt, deltaRows); err != nil {
		return err
	}
	// Merge mutates the backing table in place, bypassing Store.Insert, so
	// bump its version by hand to invalidate cached results that read it.
	db.store.Touch(v.BackingName())
	storage.AnalyzeTable(backing, vt)
	return nil
}

// QueryView reads a materialized view's current contents.
func (db *DB) QueryView(name string) ([]Row, error) {
	v := db.views.ByName(name)
	if v == nil {
		return nil, fmt.Errorf("materialized view %q does not exist", name)
	}
	vt, err := db.store.Table(v.BackingName())
	if err != nil {
		return nil, err
	}
	out := make([]Row, len(vt.Rows))
	for i, r := range vt.Rows {
		out[i] = r.Clone()
	}
	return out, nil
}
