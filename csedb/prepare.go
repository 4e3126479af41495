package csedb

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

// OpenOn returns a database wired onto an existing catalog and row store.
// The serving layer and the differential harness use it to run several DB
// configurations over one shared data set; the caller owns write
// serialization across all databases sharing the store.
func OpenOn(cat *catalog.Catalog, store *storage.Store, opts Options) *DB {
	db := Open(opts)
	db.cat = cat
	db.store = store
	return db
}

// Prepared is an optimized, execution-ready batch: the output of the plan
// step (bind + CSE optimization), reusable across executions. A Prepared is
// immutable after Prepare returns — the optimizer result is read-only at
// execution time — so it is safe to execute concurrently from many
// goroutines and to cache across requests.
//
// Staleness: Versions snapshots the referenced tables' version counters
// BEFORE optimization reads any statistics, so a plan built while a write
// raced it no longer matches the store's versions on the very next check —
// the rule cache.LRU applies to both cached plans and cached spools.
type Prepared struct {
	stmts        []parser.Statement
	batch        *logical.Batch
	out          *core.Output
	sourceTables []string
	versions     map[string]uint64
	prepareTime  time.Duration
}

// Prepare parses and optimizes a SELECT-only batch without executing it.
func (db *DB) Prepare(sql string) (*Prepared, error) {
	stmts, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.PrepareStatements(stmts)
}

// PrepareStatements is Prepare over a pre-parsed batch. Only plain SELECT
// statements may be prepared: DDL (CREATE MATERIALIZED VIEW) has
// side effects that must not replay on reuse.
func (db *DB) PrepareStatements(stmts []parser.Statement) (*Prepared, error) {
	for i, st := range stmts {
		if _, ok := st.(*parser.SelectStmt); !ok {
			return nil, fmt.Errorf("statement %d: only SELECT statements can be prepared", i+1)
		}
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("empty batch")
	}
	return db.plan(stmts, nil, nil)
}

// NumStatements returns the number of statements in the prepared batch.
func (p *Prepared) NumStatements() int { return len(p.stmts) }

// SourceTables returns the sorted base tables the batch binds (catalog
// spelling).
func (p *Prepared) SourceTables() []string { return p.sourceTables }

// Versions returns the pre-optimize version snapshot of SourceTables
// (lowercased keys, matching storage.Store.Versions).
func (p *Prepared) Versions() map[string]uint64 { return p.versions }

// PrepareTime returns the bind-to-optimized wall time.
func (p *Prepared) PrepareTime() time.Duration { return p.prepareTime }

// ExecutePrepared runs a prepared batch. The context cancels the executor
// (all parallel workers) — for a coalesced batch serving many clients, pass
// the server's base context, never an individual client's. The optional
// annotate hook runs on the root span before execution so callers (the
// serving layer) can attach coalesce/session attributes; it is never called
// when span tracing is off.
func (db *DB) ExecutePrepared(ctx context.Context, p *Prepared, annotate func(*obs.Span)) (*BatchResult, error) {
	return db.observed(func(root *obs.Span) (*BatchResult, error) {
		root.SetAttr("statements", len(p.stmts))
		root.SetAttr("prepared", true)
		if annotate != nil && root != nil {
			annotate(root)
		}
		return db.execute(ctx, root, p, 0, false)
	})
}
