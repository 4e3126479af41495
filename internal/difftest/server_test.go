package difftest

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/csedb"
	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/qgen"
	"repro/internal/server"
)

// TestServerDifferential is the serving layer's dedicated oracle: 50 seeded
// qgen batches, each split into per-statement requests and routed through 8
// concurrent sessions against one persistent coalescing server, must
// normalize byte-identically to direct sequential DB execution. The same
// run must actually exercise the machinery it claims to test: the server
// must have formed coalesced (multi-request) batches and the plan-shape
// cache must have served hits.
func TestServerDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("50-batch server oracle is slow; run without -short")
	}
	o := tpchOracle(t, nil)

	// The serving DB and the direct baseline DB share the one store.
	servDB := csedb.OpenOn(o.Cat, o.Store, csedb.Options{CacheBudget: -1, SpanTracing: true})
	directDB := csedb.OpenOn(o.Cat, o.Store, csedb.Options{CacheBudget: -1, ExecParallelism: 1})
	srv := server.New(servDB, server.Options{Window: 2 * time.Millisecond, MaxBatch: 8})
	defer srv.Close()

	const sessions = 8
	for seed := int64(1); seed <= 50; seed++ {
		b := qgen.New(qgen.Config{Seed: seed}).Batch()
		sql := b.SQL()
		pieces, err := parser.SplitStatements(sql)
		if err != nil {
			t.Fatalf("seed %d: split: %v", seed, err)
		}

		direct, err := directDB.Run(sql)
		if err != nil {
			t.Fatalf("seed %d: direct: %v", seed, err)
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
						errs[sid] = err
						return
					}
					results[i] = res.Statements[0]
				}
			}(sid)
		}
		wg.Wait()
		for sid, err := range errs {
			if err != nil {
				t.Fatalf("seed %d session %d: %v", seed, sid, err)
			}
		}

		if d := Diff(Normalize(direct.Statements), Normalize(results)); d != "" {
			t.Fatalf("seed %d: server-path results diverge from direct sequential execution:\n%s", seed, d)
		}
	}

	// The oracle is only meaningful if coalescing actually happened. With 8
	// concurrent sessions over 50 batches it essentially always has; the
	// bounded forcing loop below removes the residual scheduling luck.
	m := servDB.Metrics()
	sess, err := srv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	forced := "select n_name from nation where n_nationkey < 7"
	for try := 0; try < 50 && m.Counter("server_coalesced_batches_total").Value() == 0; try++ {
		var wg sync.WaitGroup
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := sess.Query(context.Background(), forced); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if m.Counter("server_coalesced_batches_total").Value() == 0 {
		t.Error("server_coalesced_batches_total = 0: the oracle never exercised coalescing")
	}

	// Plan-cache hits: a repeated singleton shape is a deterministic hit.
	if _, err := sess.Query(context.Background(), forced); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(context.Background(), forced); err != nil {
		t.Fatal(err)
	}
	if m.Counter("plancache_hits_total").Value() == 0 {
		t.Error("plancache_hits_total = 0: repeat shapes never hit the plan cache")
	}
}
