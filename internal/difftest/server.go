// Server-path differential cells: the same statement batch is split into
// per-statement requests, routed through N concurrent fake client sessions
// against a coalescing (or non-coalescing) server over the shared store, and
// the demultiplexed results are reassembled in original statement order —
// they must normalize byte-identically to the direct-execution baseline.
// Coalescing regroups statements into server-formed batches, so this is the
// strongest exercise of "batching never changes any client's answer".
package difftest

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/csedb"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/server"
)

// runServerConfig executes the batch through the serving layer and returns
// the normalized result text. Each statement becomes one client request;
// statements are dealt round-robin to cfg.Sessions concurrent sessions.
func (o *Oracle) runServerConfig(cfg Config, sql string) (string, error) {
	pieces, err := parser.SplitStatements(sql)
	if err != nil {
		return "", fmt.Errorf("split: %w", err)
	}
	if len(pieces) == 0 {
		return "", fmt.Errorf("empty batch")
	}
	settings := cfg.Settings
	db := csedb.OpenOn(o.Cat, o.Store, csedb.Options{
		CSE:         &settings,
		CacheBudget: -1, // isolate the serving layer: no result cache
		SpanTracing: true,
	})
	srv := server.New(db, server.Options{Window: 2 * time.Millisecond, MaxBatch: cfg.MaxBatch})
	defer srv.Close()

	sessions := cfg.Sessions
	if sessions < 1 {
		sessions = 1
	}
	results := make([]*exec.StatementResult, len(pieces))
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for sid := 0; sid < sessions; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			sess, err := srv.NewSession()
			if err != nil {
				errs[sid] = err
				return
			}
			defer sess.Close()
			for i := sid; i < len(pieces); i += sessions {
				res, err := sess.Query(context.Background(), pieces[i])
				if err != nil {
					errs[sid] = fmt.Errorf("statement %d: %w", i+1, err)
					return
				}
				if len(res.Statements) != 1 {
					errs[sid] = fmt.Errorf("statement %d: demuxed %d results", i+1, len(res.Statements))
					return
				}
				results[i] = res.Statements[0]
			}
		}(sid)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}

	// Span-lifecycle invariant: every batch the server formed must have a
	// fully-finished span tree in the flight recorder.
	for _, rec := range db.FlightRecorder().Recent() {
		var leaked int
		obs.Walk(rec.Spans, func(n *obs.SpanNode) {
			if n.Attrs != nil && n.Attrs["unfinished"] != nil {
				leaked++
			}
		})
		if leaked != 0 {
			return "", fmt.Errorf("span invariant: %d unfinished spans in a server batch", leaked)
		}
	}
	return Normalize(results), nil
}
