package exec

import (
	"context"
	"sync"
	"time"

	"repro/internal/opt"
)

// run is the batch scheduler: every statement is one task on a pool of
// workers slots, each with a private Context fork, and a spool is
// materialized by the first consumer that reads it (see spool). With one
// worker the statements run one at a time in batch order. The first error
// cancels everything in flight; results are stored by position.
func (c *Context) run(stmtPlans []*opt.Plan, workers int) ([]*StatementResult, error) {
	out := make([]*StatementResult, len(stmtPlans))
	g := newGroup(c.ctx, workers)
	for i, sp := range stmtPlans {
		g.Go(func(ctx context.Context) error {
			start := time.Now()
			ss := c.span.Child("statement")
			ss.SetAttr("stmt", i)
			defer ss.End()
			// Spools this statement reads first nest under its span.
			cc := c.fork(ctx)
			cc.span = ss
			sr, err := cc.runStatement(sp)
			if err != nil {
				return err
			}
			ss.SetAttr("rows", len(sr.Rows))
			c.stats.recordStmt(i, time.Since(start))
			out[i] = sr
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// group is a minimal errgroup: a bounded pool of goroutines whose first
// error cancels the shared context and is returned by Wait.
type group struct {
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
	err    error
}

func newGroup(parent context.Context, limit int) *group {
	ctx, cancel := context.WithCancel(parent)
	return &group{ctx: ctx, cancel: cancel, sem: make(chan struct{}, limit)}
}

// Go schedules f on the pool, blocking while all workers are busy. f is
// skipped (with the cancellation error reported by Wait) once the group is
// cancelled.
func (g *group) Go(f func(ctx context.Context) error) {
	g.sem <- struct{}{}
	g.wg.Add(1)
	go func() {
		defer func() {
			<-g.sem
			g.wg.Done()
		}()
		if err := g.ctx.Err(); err != nil {
			g.fail(err)
			return
		}
		if err := f(g.ctx); err != nil {
			g.fail(err)
		}
	}()
}

func (g *group) fail(err error) {
	g.once.Do(func() {
		g.err = err
		g.cancel()
	})
}

// Wait blocks until every scheduled task finished and returns the first
// error. It releases the group's context resources.
func (g *group) Wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}
