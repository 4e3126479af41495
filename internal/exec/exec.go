// Package exec executes physical plans against the in-memory store:
// Volcano-in-spirit operators materialized per node (scan, filter, hash
// join, nested-loop join, hash aggregation, projection, sort), work-table
// spools shared across all their consumers (each CSE is computed exactly
// once per batch execution), and uncorrelated scalar subqueries evaluated
// once per statement.
//
// One scheduler runs every batch: each statement is one task on a bounded
// worker pool, and each spool is materialized by the first consumer that
// reads it — a statement or a stacked spool — under the spool's sync.Once,
// while later readers wait for that one computation. Results are merged in
// statement order. Options configures the pool; Parallelism 1 is the same
// scheduler with one worker, which runs the statements one at a time in
// batch order.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/scalar"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// StatementResult is one statement's output.
type StatementResult struct {
	Names []string
	Rows  []sqltypes.Row
}

// Options configures batch execution.
type Options struct {
	// Parallelism is the worker-pool size: 0 (or negative) means
	// runtime.GOMAXPROCS(0); n > 0 runs at most n statements at once and
	// caps intra-operator parallelism at n. 1 runs the statements one at a
	// time in batch order with no intra-operator helpers.
	Parallelism int

	// Analyze turns on per-operator instrumentation (rows produced,
	// cumulative wall time, execution counts) reported in Stats.Nodes for
	// EXPLAIN ANALYZE rendering. It changes no data path: an Analyze run
	// executes what a plain run does and adds the timing. Off by default:
	// the plain path pays no per-node timing cost.
	Analyze bool

	// Cache, when non-nil, is the cross-batch spool result cache: a spool
	// whose CSEPlan carries a SpecKey is looked up before materialization
	// (hit → cached rows are served) and offered for admission after (with
	// the source-table version snapshot taken before the plan ran).
	Cache *cache.Cache

	// ChunkSize is the morsel granularity for intra-operator parallelism:
	// operator inputs are split into chunks of this many rows before being
	// dispatched to workers. 0 (or negative) means DefaultChunkSize. Exposed
	// mainly for testing — a chunk size of 1 maximizes scheduling interleave.
	ChunkSize int

	// Span, when non-nil, is the parent span the executor records under:
	// one child per statement, and under the statement that first read it
	// one per spool materialization (with its cache hit/miss attribute) and
	// one per wait on another reader's materialization.
	// Nil disables span recording at zero cost.
	Span *obs.Span

	// NoColPlane disables the columnar data plane: selection-vector kernels
	// over typed column chunks and column-at-a-time hash-key extraction. Off
	// by default (the column plane is on); the row-at-a-time path it forces
	// is kept as the differential-testing oracle.
	NoColPlane bool
}

func (o Options) workers() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

func (o Options) chunkSize() int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return DefaultChunkSize
}

// spoolEntry is one CSE's shared work table. Its first reader materializes
// it inside once; every other reader blocks in once until rows and err are
// set. RunWithOptions rejects spool cycles before any reader starts, since a
// cycle would block its first reader forever.
type spoolEntry struct {
	id   int
	plan *opt.Plan
	once sync.Once
	rows []sqltypes.Row
	err  error

	// box pairs rows with their lazily built columnar form; cache hits hand
	// back the same box, so the column slices are shared by reference.
	box *storage.ColBox

	// Cross-batch cache identity: the candidate's canonical spec key and
	// the base tables its plan reads (lowercase, sorted). key is "" when the
	// spool is not cacheable (no SpecKey, or no cache).
	key     string
	sources []string
}

// Context executes one batch plan. Every statement task gets its own shallow
// copy with a private subqueryVals map; the spool table and stats are shared.
type Context struct {
	Store *storage.Store
	Md    *logical.Metadata
	CSEs  map[int]*opt.CSEPlan

	ctx          context.Context
	spools       map[int]*spoolEntry
	subqueryVals map[int]sqltypes.Datum
	stats        *collector
	cache        *cache.Cache

	// span is the enclosing span new work records under: the statement span
	// of the task. Nil when span tracing is off.
	span *obs.Span

	// Intra-operator parallelism: workers is the degree budget shared with
	// the batch-level scheduler, chunkSize the morsel granularity, and pool
	// the batch-wide helper-slot channel (capacity workers-1) that bounds the
	// total number of goroutines doing operator work. workers == 1 disables
	// intra-op parallelism entirely.
	workers   int
	chunkSize int
	pool      chan struct{}

	// colPlane enables selection-vector kernels and column-at-a-time hashing
	// over columnar shadows (see vector.go); false forces the row-at-a-time
	// reference path.
	colPlane bool
}

func newContext(ctx context.Context, res *opt.Result, md *logical.Metadata, store *storage.Store, stats *collector, opts Options) *Context {
	workers := opts.workers()
	// Intra-operator workers beyond the number of schedulable CPUs are pure
	// scheduling overhead (morsels are CPU-bound), so the intra-op degree is
	// capped at GOMAXPROCS even when the batch-level pool is configured
	// larger.
	intraOp := min(workers, runtime.GOMAXPROCS(0))
	c := &Context{
		Store:        store,
		Md:           md,
		CSEs:         res.CSEs,
		ctx:          ctx,
		spools:       make(map[int]*spoolEntry, len(res.CSEs)),
		subqueryVals: make(map[int]sqltypes.Datum),
		stats:        stats,
		cache:        opts.Cache,
		span:         opts.Span,
		workers:      intraOp,
		chunkSize:    opts.chunkSize(),
		colPlane:     !opts.NoColPlane,
	}
	if intraOp > 1 {
		c.pool = make(chan struct{}, intraOp-1)
	}
	for id, cse := range res.CSEs {
		e := &spoolEntry{id: id, plan: cse.Plan}
		if opts.Cache != nil && cse.SpecKey != "" {
			// Resolve the plan's base tables (through stacked spools) so a
			// lookup can snapshot their versions.
			set := make(map[string]bool)
			cse.Plan.SourceTables(md, res.CSEs, set)
			e.key = cse.SpecKey
			e.sources = sortedNames(set)
		}
		c.spools[id] = e
	}
	return c
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// fork returns a Context sharing the spool table and stats but with private
// per-statement state, for use by one goroutine.
func (c *Context) fork(ctx context.Context) *Context {
	cc := *c
	cc.ctx = ctx
	cc.subqueryVals = make(map[int]sqltypes.Datum)
	return &cc
}

// RunWithOptions executes an optimized batch on a worker pool of the
// configured size and returns per-statement results with execution
// statistics — each CSE appears exactly once in the spool stats regardless
// of its number of consumers. It first rejects spools that cannot be
// materialized at first read (opt.Result.CheckSpools), then runs the
// statements as tasks; the first error (or a context cancellation) cancels
// all remaining work. Results are returned in statement order and are the
// same at every pool size.
func RunWithOptions(ctx context.Context, res *opt.Result, md *logical.Metadata, store *storage.Store, opts Options) ([]*StatementResult, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stmtPlans := res.StatementPlans()
	for _, sp := range stmtPlans {
		if sp == nil || sp.Op != opt.PRoot {
			return nil, nil, fmt.Errorf("statement plan has op %s, want Output", planOp(sp))
		}
	}
	if err := res.CheckSpools(); err != nil {
		return nil, nil, err
	}
	workers := opts.workers()
	stats := newCollector(len(stmtPlans), workers, opts.Analyze)
	c := newContext(ctx, res, md, store, stats, opts)

	start := time.Now()
	out, err := c.run(stmtPlans, workers)
	if err != nil {
		return nil, nil, err
	}
	return out, stats.snapshot(time.Since(start)), nil
}

func planOp(p *opt.Plan) string {
	if p == nil {
		return "<nil>"
	}
	return p.Op.String()
}

func (c *Context) runStatement(p *opt.Plan) (*StatementResult, error) {
	var start time.Time
	if c.stats.analyze {
		start = time.Now()
	}
	// Evaluate scalar subqueries first.
	for i, sq := range p.Children[1:] {
		idx := p.SubqueryIdxs[i]
		val, err := c.evalSubquery(idx, sq)
		if err != nil {
			return nil, err
		}
		c.subqueryVals[idx] = val
	}
	layout := layoutOf(c.sourceCols(p.Children[0]))
	fns := make([]scalar.EvalFn, len(p.Projections))
	for i, pr := range p.Projections {
		fn, err := c.compile(pr.Expr, layout)
		if err != nil {
			return nil, fmt.Errorf("compiling projection %q: %w", pr.Name, err)
		}
		fns[i] = fn
	}
	rows, err := c.execSource(p.Children[0])
	if err != nil {
		return nil, err
	}
	// The output projection is a morsel pass like any other operator: arena
	// rows and (with intra-op helpers) per-worker output slabs.
	out, err := c.runMorsels(p, len(rows), func(arena *sqltypes.RowArena, lo, hi int, out *[]sqltypes.Row) error {
		*out = append(*out, make([]sqltypes.Row, 0, hi-lo)...)
		for _, r := range rows[lo:hi] {
			row := arena.NewRow(len(fns))
			for i, fn := range fns {
				row[i] = fn(r)
			}
			*out = append(*out, row)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.OrderBy) > 0 {
		keys := p.OrderBy
		sort.SliceStable(out, func(i, j int) bool {
			for _, k := range keys {
				cmp := sqltypes.Compare(out[i][k.ProjIdx], out[j][k.ProjIdx])
				if cmp != 0 {
					if k.Desc {
						return cmp > 0
					}
					return cmp < 0
				}
			}
			return false
		})
	}
	if p.Limit > 0 && len(out) > p.Limit {
		out = out[:p.Limit]
	}
	if c.stats.analyze {
		c.stats.recordNode(p, len(out), time.Since(start))
	}
	return &StatementResult{Names: p.OutputNames, Rows: out}, nil
}

func (c *Context) evalSubquery(idx int, plan *opt.Plan) (sqltypes.Datum, error) {
	rows, err := c.execSource(plan)
	if err != nil {
		return sqltypes.Null, err
	}
	blk := c.Md.Subquery(idx)
	switch {
	case len(rows) == 0:
		return sqltypes.Null, nil
	case len(rows) > 1:
		return sqltypes.Null, fmt.Errorf("scalar subquery returned %d rows", len(rows))
	}
	fn, err := c.compile(blk.Projections[0].Expr, layoutOf(c.sourceCols(plan)))
	if err != nil {
		return sqltypes.Null, err
	}
	return fn(rows[0]), nil
}

// compile substitutes evaluated subquery values and compiles the expression
// against the given row layout.
func (c *Context) compile(e *scalar.Expr, layout map[scalar.ColID]int) (scalar.EvalFn, error) {
	return scalar.Compile(c.substituteSubqueries(e), layout)
}

func (c *Context) substituteSubqueries(e *scalar.Expr) *scalar.Expr {
	if e == nil {
		return nil
	}
	if e.Op == scalar.OpSubquery {
		val, ok := c.subqueryVals[int(e.Col)]
		if !ok {
			// Leave unresolved; Compile reports the error.
			return e
		}
		return scalar.Const(val)
	}
	if len(e.Args) == 0 {
		return e
	}
	args := make([]*scalar.Expr, len(e.Args))
	changed := false
	for i, a := range e.Args {
		args[i] = c.substituteSubqueries(a)
		if args[i] != a {
			changed = true
		}
	}
	if !changed {
		return e
	}
	out := *e
	out.Args = args
	return &out
}

func layoutOf(cols []scalar.ColID) map[scalar.ColID]int {
	m := make(map[scalar.ColID]int, len(cols))
	for i, c := range cols {
		m[c] = i
	}
	return m
}

// exec runs one plan node to a materialized row set with layout p.Cols:
// execSource, then one re-projection, which only a pass-through node needs.
func (c *Context) exec(p *opt.Plan) ([]sqltypes.Row, error) {
	rows, err := c.execSource(p)
	if err != nil {
		return nil, err
	}
	return c.reproject(p, rows)
}

// observe runs one plan node, recording its rows and cumulative wall time
// when Analyze mode is on.
func (c *Context) observe(p *opt.Plan, run func(*opt.Plan) ([]sqltypes.Row, error)) ([]sqltypes.Row, error) {
	if !c.stats.analyze {
		return run(p)
	}
	start := time.Now()
	rows, err := run(p)
	if err == nil {
		c.stats.recordNode(p, len(rows), time.Since(start))
	}
	return rows, err
}

// execNode dispatches one materializing plan node.
func (c *Context) execNode(p *opt.Plan) ([]sqltypes.Row, error) {
	switch p.Op {
	case opt.PHashJoin:
		return c.execHashJoin(p)
	case opt.PNLJoin:
		return c.execNLJoin(p)
	case opt.PMergeJoin:
		return c.execMergeJoin(p)
	case opt.PLookupJoin:
		return c.execLookupJoin(p)
	case opt.PHashAgg:
		return c.execHashAgg(p)
	case opt.PStreamAgg:
		return c.execStreamAgg(p)
	case opt.PProject:
		return c.execProject(p)
	case opt.PSpoolScan:
		// Every spool scan is one read of the shared work table.
		c.stats.recordSpoolHit(p.SpoolID)
		return c.spool(p)
	default:
		return nil, fmt.Errorf("cannot execute plan op %s", p.Op)
	}
}

// spool returns the materialized work table read by the spool scan p. All
// consumers — including other CSE plans — share one result: the first reader
// materializes it inside the entry's sync.Once and every other reader blocks
// there until it is done. The time a reader spends blocked is subtracted from
// the batch's busy time, reported as the scan's NodeStats.Wait under Analyze
// and, when it is long enough to matter, recorded as a spool-wait span naming
// the CSE.
func (c *Context) spool(p *opt.Plan) ([]sqltypes.Row, error) {
	e, ok := c.spools[p.SpoolID]
	if !ok {
		return nil, fmt.Errorf("no plan for CSE %d", p.SpoolID)
	}
	start := time.Now()
	ran := false
	ws := c.span.Child("spool-wait")
	e.once.Do(func() {
		ran = true
		e.materialize(c)
	})
	if ran {
		ws.Discard()
		return e.rows, e.err
	}
	wait := time.Since(start)
	c.stats.recordBlocked(p, wait)
	if wait < 10*time.Microsecond {
		ws.Discard()
	} else {
		ws.End()
		ws.SetAttr("cse", e.id)
		ws.SetAttr("wait_us", wait.Microseconds())
	}
	return e.rows, e.err
}

// materialize executes the spool's plan exactly once and records stats. For
// cacheable spools it first consults the cross-batch result cache; on a miss
// the freshly computed rows are offered back under the source-table version
// snapshot taken *before* the plan ran, so a write racing the computation
// leaves behind an entry the next lookup rejects rather than stale data that
// validates.
func (e *spoolEntry) materialize(c *Context) {
	start := time.Now()
	sp := c.span.Child("spool")
	sp.SetAttr("cse", e.id)
	defer sp.End()
	var versions map[string]uint64
	if e.key == "" {
		sp.SetAttr("cache", "uncacheable")
	} else {
		versions = c.Store.Versions(e.sources)
		if box, ok := c.cache.Lookup(e.key, versions); ok {
			// The cached box carries both forms: rows and any columnar shadow
			// already built for them — a hit re-encodes nothing.
			e.box = box
			e.rows = box.Rows()
			sp.SetAttr("cache", "hit")
			sp.SetAttr("rows", len(e.rows))
			c.stats.recordSpoolCached(e.id, len(e.rows), time.Since(start))
			return
		}
		sp.SetAttr("cache", "miss")
	}
	rows, err := c.exec(e.plan)
	if err != nil {
		e.err = fmt.Errorf("materializing CSE %d: %w", e.id, err)
		sp.SetAttr("error", e.err.Error())
		return
	}
	e.rows = rows
	e.box = storage.NewColBox(rows)
	sp.SetAttr("rows", len(rows))
	c.stats.recordSpool(e.id, len(rows), time.Since(start))
	if e.key != "" {
		// The cache applies the H2-style admission bound against the plan's
		// estimated cost.
		c.cache.Admit(e.key, e.box, versions, e.plan.Cost)
	}
}

func (c *Context) execHashJoin(p *opt.Plan) ([]sqltypes.Row, error) {
	// Children arrive through execSource, so key and output positions are
	// resolved against the layout the rows actually carry; the join itself
	// emits its declared p.Cols layout.
	probeLayout := layoutOf(c.sourceCols(p.Children[0]))
	buildLayout := layoutOf(c.sourceCols(p.Children[1]))
	probeKeys, err := colPositions(p.LeftKeys, probeLayout, "hash join probe key")
	if err != nil {
		return nil, err
	}
	buildKeys, err := colPositions(p.RightKeys, buildLayout, "hash join build key")
	if err != nil {
		return nil, err
	}
	probeIdx, err := colPositions(p.Children[0].Cols, probeLayout, "hash join probe column")
	if err != nil {
		return nil, err
	}
	buildIdx, err := colPositions(p.Children[1].Cols, buildLayout, "hash join build column")
	if err != nil {
		return nil, err
	}
	var residual scalar.EvalFn
	if p.Filter != nil {
		residual, err = c.compile(p.Filter, layoutOf(p.Cols))
		if err != nil {
			return nil, err
		}
	}
	// Build side first: an inner join with an empty build produces nothing,
	// so the probe subtree is never executed at all.
	build, err := c.execSource(p.Children[1])
	if err != nil {
		return nil, err
	}
	if len(build) == 0 {
		return nil, nil
	}
	hasher := sqltypes.NewHasher()
	// Typed hash-key extraction: when a side's rows are backed by a columnar
	// shadow, key hashes are computed column-at-a-time in one typed pass per
	// key column; the fold order matches HashKey, so the table and probes are
	// identical either way.
	var buildHash []uint64
	var buildKeyed []bool
	if cd := c.sourceView(p.Children[1], build); cd != nil {
		buildHash, buildKeyed = colHashKeys(hasher, cd, build, buildKeys)
		c.stats.recordColHash()
	}
	// Chain-layout hash table: heads maps a key hash to the first matching
	// build row, next links same-hash rows. Chains are threaded back-to-front
	// so probes walk them in build order, preserving the sequential emit
	// order. Compared to map[hash][]Row buckets this allocates two flat
	// structures instead of one growing slice per distinct key.
	heads := make(map[uint64]int, len(build))
	next := make([]int, len(build))
	for i := len(build) - 1; i >= 0; i-- {
		var h uint64
		var ok bool
		if buildHash != nil {
			h, ok = buildHash[i], buildKeyed[i]
		} else {
			h, ok = hasher.HashKey(build[i], buildKeys)
		}
		if !ok {
			continue
		}
		if head, ok := heads[h]; ok {
			next[i] = head
		} else {
			next[i] = -1
		}
		heads[h] = i
	}
	probe, err := c.execSource(p.Children[0])
	if err != nil {
		return nil, err
	}
	var probeHash []uint64
	var probeKeyed []bool
	if cd := c.sourceView(p.Children[0], probe); cd != nil {
		probeHash, probeKeyed = colHashKeys(hasher, cd, probe, probeKeys)
		c.stats.recordColHash()
	}
	probeWidth := len(p.Children[0].Cols)
	width := probeWidth + len(p.Children[1].Cols)
	return c.runMorsels(p, len(probe), func(arena *sqltypes.RowArena, lo, hi int, out *[]sqltypes.Row) error {
		// Direct-write output: the candidate row is carved from the worker's
		// arena once and reused until a match survives the residual, so each
		// emitted row costs exactly one allocation (amortized by the slab).
		var row sqltypes.Row
		for pi := lo; pi < hi; pi++ {
			pr := probe[pi]
			var h uint64
			var keyed bool
			if probeHash != nil {
				h, keyed = probeHash[pi], probeKeyed[pi]
			} else {
				h, keyed = hasher.HashKey(pr, probeKeys)
			}
			if !keyed {
				continue
			}
			j, ok := heads[h]
			if !ok {
				continue
			}
			for ; j >= 0; j = next[j] {
				br := build[j]
				if !keysEqual(pr, probeKeys, br, buildKeys) {
					continue
				}
				if row == nil {
					row = arena.NewRow(width)
				}
				for i, pos := range probeIdx {
					row[i] = pr[pos]
				}
				for i, pos := range buildIdx {
					row[probeWidth+i] = br[pos]
				}
				if residual != nil {
					d := residual(row)
					if d.IsNull() || !d.Bool() {
						continue
					}
				}
				*out = append(*out, row)
				row = nil
			}
		}
		return nil
	})
}

func rowHasNullAt(r sqltypes.Row, idx []int) bool {
	for _, i := range idx {
		if r[i].IsNull() {
			return true
		}
	}
	return false
}

func keysEqual(a sqltypes.Row, ai []int, b sqltypes.Row, bi []int) bool {
	for k := range ai {
		if sqltypes.Compare(a[ai[k]], b[bi[k]]) != 0 {
			return false
		}
	}
	return true
}

func (c *Context) execNLJoin(p *opt.Plan) ([]sqltypes.Row, error) {
	var filter scalar.EvalFn
	var err error
	if p.Filter != nil {
		filter, err = c.compile(p.Filter, layoutOf(p.Cols))
		if err != nil {
			return nil, err
		}
	}
	leftIdx, err := colPositions(p.Children[0].Cols, layoutOf(c.sourceCols(p.Children[0])), "join left column")
	if err != nil {
		return nil, err
	}
	rightIdx, err := colPositions(p.Children[1].Cols, layoutOf(c.sourceCols(p.Children[1])), "join right column")
	if err != nil {
		return nil, err
	}
	left, err := c.execSource(p.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := c.execSource(p.Children[1])
	if err != nil {
		return nil, err
	}
	leftWidth := len(p.Children[0].Cols)
	width := leftWidth + len(p.Children[1].Cols)
	return c.runMorsels(p, len(left), func(arena *sqltypes.RowArena, lo, hi int, out *[]sqltypes.Row) error {
		var row sqltypes.Row
		for _, lr := range left[lo:hi] {
			for _, rr := range right {
				if row == nil {
					row = arena.NewRow(width)
				}
				for i, pos := range leftIdx {
					row[i] = lr[pos]
				}
				for i, pos := range rightIdx {
					row[leftWidth+i] = rr[pos]
				}
				if filter != nil {
					d := filter(row)
					if d.IsNull() || !d.Bool() {
						continue
					}
				}
				*out = append(*out, row)
				row = nil
			}
		}
		return nil
	})
}

func (c *Context) execProject(p *opt.Plan) ([]sqltypes.Row, error) {
	layout := layoutOf(c.sourceCols(p.Children[0]))
	fns := make([]scalar.EvalFn, len(p.Projections))
	for i, pr := range p.Projections {
		fn, err := c.compile(pr.Expr, layout)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	in, err := c.execSource(p.Children[0])
	if err != nil {
		return nil, err
	}
	return c.runMorsels(p, len(in), func(arena *sqltypes.RowArena, lo, hi int, out *[]sqltypes.Row) error {
		*out = append(*out, make([]sqltypes.Row, 0, hi-lo)...)
		for _, r := range in[lo:hi] {
			row := arena.NewRow(len(fns))
			for i, fn := range fns {
				row[i] = fn(r)
			}
			*out = append(*out, row)
		}
		return nil
	})
}
