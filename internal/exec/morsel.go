package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/opt"
	"repro/internal/sqltypes"
)

// DefaultChunkSize is the morsel granularity: operator inputs are processed
// in fixed-size row chunks so work can be dispatched to the intra-operator
// worker pool with bounded skew while per-chunk overhead stays negligible.
const DefaultChunkSize = 1024

// morselSize is the context's morsel granularity; a Context built without
// newContext (tests) falls back to the default.
func (c *Context) morselSize() int {
	if c.chunkSize > 0 {
		return c.chunkSize
	}
	return DefaultChunkSize
}

// morselEmit processes input positions [lo, hi) of one operator, appending
// output rows to out. The arena is private to the calling worker; emitted
// rows may be carved from it.
type morselEmit func(arena *sqltypes.RowArena, lo, hi int, out *[]sqltypes.Row) error

// runMorsels executes emit over the domain [0, n) in chunkSize morsels.
// With a single worker (or a single morsel) it runs inline; otherwise
// morsels are pulled off a shared counter by this goroutine plus up to
// workers-1 helpers from the batch-wide intra-op pool. Each morsel writes
// its own output slice and the slices are concatenated in morsel order, so
// the result is byte-identical to a sequential pass regardless of how many
// helpers actually ran.
func (c *Context) runMorsels(p *opt.Plan, n int, emit morselEmit) ([]sqltypes.Row, error) {
	chunk := c.morselSize()
	nMorsels := (n + chunk - 1) / chunk
	if c.workers <= 1 || nMorsels <= 1 {
		var arena sqltypes.RowArena
		var out []sqltypes.Row
		if err := emit(&arena, 0, n, &out); err != nil {
			return nil, err
		}
		return out, nil
	}

	outs := make([][]sqltypes.Row, nMorsels)
	var next atomic.Int64
	worker := func() error {
		var arena sqltypes.RowArena
		for {
			if err := c.ctx.Err(); err != nil {
				return err
			}
			m := int(next.Add(1)) - 1
			if m >= nMorsels {
				return nil
			}
			lo := m * chunk
			hi := min(lo+chunk, n)
			if err := emit(&arena, lo, hi, &outs[m]); err != nil {
				return err
			}
		}
	}
	if err := c.runWorkers(p, nMorsels, min(c.workers, nMorsels), worker); err != nil {
		return nil, err
	}

	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]sqltypes.Row, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, nil
}

// runParts executes work(part) for every part in [0, nParts), in parallel
// when the pool allows. Parts are claimed dynamically; callers that need a
// deterministic result must make each part's output independent of which
// worker ran it (e.g. write into a per-part slot).
func (c *Context) runParts(p *opt.Plan, nParts int, work func(part int) error) error {
	if c.workers <= 1 || nParts <= 1 {
		for i := 0; i < nParts; i++ {
			if err := work(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	worker := func() error {
		for {
			if err := c.ctx.Err(); err != nil {
				return err
			}
			m := int(next.Add(1)) - 1
			if m >= nParts {
				return nil
			}
			if err := work(m); err != nil {
				return err
			}
		}
	}
	return c.runWorkers(p, nParts, min(c.workers, nParts), worker)
}

// runWorkers runs the worker loop on this goroutine plus as many helpers
// (up to want-1) as the batch-wide intra-op pool can lend, returning the
// first error. It records the operator's morsel count and achieved degree,
// and each helper's run time as busy time.
func (c *Context) runWorkers(p *opt.Plan, nMorsels, want int, worker func() error) error {
	helpers := 0
acquire:
	for helpers < want-1 {
		select {
		case c.pool <- struct{}{}:
			helpers++
		default:
			break acquire // pool exhausted; run with what we have
		}
	}
	c.stats.recordMorsels(p, nMorsels, helpers+1)

	if helpers == 0 {
		return worker()
	}
	errs := make([]error, helpers)
	var wg sync.WaitGroup
	for i := 0; i < helpers; i++ {
		i := i
		wg.Add(1)
		go func() {
			start := time.Now()
			defer func() {
				c.stats.recordHelper(time.Since(start))
				<-c.pool
				wg.Done()
			}()
			errs[i] = worker()
		}()
	}
	err := worker()
	wg.Wait()
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// blockBounds splits [0, n) into at most workers contiguous, chunk-aligned
// blocks of near-equal size, returned as block boundaries (len = blocks+1).
// Used by operators whose merge step needs contiguous input ranges (hash
// aggregation); the boundaries depend only on n, the chunk size, and the
// pool size — never on scheduling — so results stay deterministic.
func (c *Context) blockBounds(n int) []int {
	if n == 0 {
		return []int{0, 0}
	}
	chunk := c.morselSize()
	nChunks := (n + chunk - 1) / chunk
	parts := c.workers
	if parts < 1 {
		parts = 1
	}
	if parts > nChunks {
		parts = nChunks
	}
	bounds := make([]int, 0, parts+1)
	bounds = append(bounds, 0)
	base, rem := nChunks/parts, nChunks%parts
	pos := 0
	for i := 0; i < parts; i++ {
		cnt := base
		if i < rem {
			cnt++
		}
		pos += cnt * chunk
		if pos > n {
			pos = n
		}
		bounds = append(bounds, pos)
	}
	bounds[len(bounds)-1] = n
	return bounds
}
