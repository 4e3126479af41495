package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/csedb"
	"repro/internal/exec"
	"repro/internal/sqltypes"
)

// newTestDB loads a small TPC-H database with span tracing on (the
// zero-unfinished-span invariant is asserted by the difftest cells; here the
// spans exercise the annotate path).
func newTestDB(t *testing.T) *csedb.DB {
	t.Helper()
	db := csedb.Open(csedb.Options{SpanTracing: true})
	if err := db.LoadTPCH(0.01, 1); err != nil {
		t.Fatal(err)
	}
	return db
}

func newTestServer(t *testing.T, opts Options) (*Server, *csedb.DB) {
	t.Helper()
	db := newTestDB(t)
	s := New(db, opts)
	t.Cleanup(func() { s.Close() })
	return s, db
}

func mustSession(t *testing.T, s *Server) *Session {
	t.Helper()
	sess, err := s.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

const q1 = `select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-07-01' and c_nationkey > 0 and c_nationkey < 20
group by c_nationkey, c_mktsegment`

const q2 = `select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq
from customer, orders, lineitem
where c_custkey = o_custkey and o_orderkey = l_orderkey
  and o_orderdate < '1996-07-01' and c_nationkey > 5 and c_nationkey < 25
group by c_nationkey`

// datumText renders a datum for comparison, rounding floats to 4 decimal
// places: a CSE-shared plan may sum floats in a different order than the
// direct plan, which is a last-ulp difference, not a correctness bug.
// difftest.Normalize, by contrast, writes floats exactly and leaves the
// tolerance to difftest.Diff, which compares them at 1e-9 relative.
func datumText(d sqltypes.Datum) string {
	if d.Kind() == sqltypes.KindFloat {
		return fmt.Sprintf("%.4f", d.Float())
	}
	return d.String()
}

// waitUntil polls cond under s.mu until it holds: a request reaches the
// window on its client's goroutine. It fails the test with what when cond
// does not hold within two seconds.
func waitUntil(t *testing.T, s *Server, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

func sameResults(a, b []*exec.StatementResult) error {
	if len(a) != len(b) {
		return fmt.Errorf("statement count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Rows) != len(b[i].Rows) {
			return fmt.Errorf("statement %d: %d rows vs %d", i, len(a[i].Rows), len(b[i].Rows))
		}
		for j := range a[i].Rows {
			for k := range a[i].Rows[j] {
				if da, db := datumText(a[i].Rows[j][k]), datumText(b[i].Rows[j][k]); da != db {
					return fmt.Errorf("statement %d row %d col %d: %s vs %s", i, j, k, da, db)
				}
			}
		}
	}
	return nil
}

// TestSingleQueryWindow pins that a window holding exactly one query does not
// regress vs the direct DB path: same rows, Coalesced == 1.
func TestSingleQueryWindow(t *testing.T) {
	s, db := newTestServer(t, Options{Window: time.Millisecond})
	sess := mustSession(t, s)
	res, err := sess.Query(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coalesced != 1 || res.Sessions != 1 {
		t.Errorf("Coalesced=%d Sessions=%d, want 1/1", res.Coalesced, res.Sessions)
	}
	direct, err := db.Run(q1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResults(res.Statements, direct.Statements); err != nil {
		t.Error(err)
	}
}

// TestCoalescedBatch parks two sessions' similar queries in one window and
// checks both get their own (direct-path-identical) answers from the shared
// batch.
func TestCoalescedBatch(t *testing.T) {
	s, db := newTestServer(t, Options{Window: 200 * time.Millisecond, MaxBatch: 2})
	sa, sb := mustSession(t, s), mustSession(t, s)

	var ra, rb *Result
	var ea, eb error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ra, ea = sa.Query(context.Background(), q1) }()
	go func() { defer wg.Done(); rb, eb = sb.Query(context.Background(), q2) }()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatal(ea, eb)
	}
	// MaxBatch 2 guarantees they coalesced (the second enqueue triggers the
	// count flush regardless of timing).
	if ra.Coalesced != 2 || rb.Coalesced != 2 {
		t.Fatalf("Coalesced = %d/%d, want 2/2", ra.Coalesced, rb.Coalesced)
	}
	if ra.Sessions != 2 {
		t.Errorf("Sessions = %d, want 2", ra.Sessions)
	}
	da, _ := db.Run(q1)
	dbres, _ := db.Run(q2)
	if err := sameResults(ra.Statements, da.Statements); err != nil {
		t.Errorf("session a: %v", err)
	}
	if err := sameResults(rb.Statements, dbres.Statements); err != nil {
		t.Errorf("session b: %v", err)
	}
	if s.DB().Metrics().Counter("server_coalesced_batches_total").Value() == 0 {
		t.Error("server_coalesced_batches_total = 0 after a coalesced batch")
	}
}

// TestStaleTimerDoesNotFlushNextWindow pins the window generation: a window
// its count trigger flushed leaves its timer behind, and that timer must not
// flush the next window early. Timers are fired by hand through the
// afterFunc seam, so nothing sleeps.
func TestStaleTimerDoesNotFlushNextWindow(t *testing.T) {
	s, _ := newTestServer(t, Options{Window: time.Hour, MaxBatch: 2})
	timers := make(chan func(), 4)
	s.afterFunc = func(_ time.Duration, f func()) *time.Timer {
		timers <- f
		return nil
	}
	pending := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pending)
	}
	sess := mustSession(t, s)

	// The first request arms the window's timer; the second trips the
	// count trigger, so that timer is stale from here on.
	var wg sync.WaitGroup
	for _, q := range []string{q1, q2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := sess.Query(context.Background(), q); err != nil {
				t.Error(err)
			} else if res.Coalesced != 2 {
				t.Errorf("Coalesced = %d, want 2 (count trigger)", res.Coalesced)
			}
		}()
	}
	wg.Wait()
	stale := <-timers

	third := make(chan *Result, 1)
	go func() {
		res, err := sess.Query(context.Background(), q1)
		if err != nil {
			t.Error(err)
		}
		third <- res
	}()
	current := <-timers
	if n := pending(); n != 1 {
		t.Fatalf("pending = %d after the third request armed its window, want 1", n)
	}
	stale()
	if n := pending(); n != 1 {
		t.Fatalf("pending = %d after the stale timer fired, want 1: it flushed the next window", n)
	}
	current()
	if res := <-third; res == nil || res.Coalesced != 1 {
		t.Errorf("third request result = %+v, want a batch of 1 flushed by its own timer", res)
	}
}

// TestFlushStopsWindowTimer: a window that its count trigger or Close
// flushes stops its timer. Left armed, the timer would hold the server and
// its DB until the full window had passed.
func TestFlushStopsWindowTimer(t *testing.T) {
	s, _ := newTestServer(t, Options{Window: time.Hour, MaxBatch: 2})
	armed := make(chan *time.Timer, 2)
	s.afterFunc = func(d time.Duration, f func()) *time.Timer {
		tm := time.AfterFunc(d, f)
		armed <- tm
		return tm
	}
	sess := mustSession(t, s)

	var wg sync.WaitGroup
	for _, q := range []string{q1, q2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.Query(context.Background(), q); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if (<-armed).Stop() {
		t.Error("the count trigger flushed the window and left its timer armed")
	}

	parked := make(chan error, 1)
	go func() {
		_, err := sess.Query(context.Background(), q1)
		parked <- err
	}()
	tm := <-armed // the request is in the window
	s.Close()
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if tm.Stop() {
		t.Error("Close flushed the window and left its timer armed")
	}
}

// TestWindowOverflow pins the count trigger: 9 requests against MaxBatch 4
// and a long window must form batches of exactly 4, 4, and 1 — the count
// trigger fires early, and the remainder re-windows rather than joining an
// oversized batch.
func TestWindowOverflow(t *testing.T) {
	s, _ := newTestServer(t, Options{Window: 150 * time.Millisecond, MaxBatch: 4})
	sess := mustSession(t, s)

	const n = 9
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sess.Query(context.Background(), q1)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	sizes := map[int]int{}
	for _, r := range results {
		if r == nil {
			t.Fatal("missing result")
		}
		if r.Coalesced > 4 {
			t.Errorf("batch of %d exceeds MaxBatch 4", r.Coalesced)
		}
		sizes[r.Coalesced]++
	}
	if sizes[4] != 8 || sizes[1] != 1 {
		t.Errorf("batch sizes = %v, want 8 requests in batches of 4 and 1 alone", sizes)
	}
}

// TestAdmissionRejection pins the typed retryable error at the admission
// bound.
func TestAdmissionRejection(t *testing.T) {
	s, _ := newTestServer(t, Options{Window: time.Second, MaxInflight: 1, MaxBatch: 64})
	sess := mustSession(t, s)

	parked := make(chan error, 1)
	go func() {
		_, err := sess.Query(context.Background(), q1)
		parked <- err
	}()
	waitUntil(t, s, "first request never became inflight", func() bool { return s.inflight == 1 })

	_, err := sess.Query(context.Background(), q2)
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("want *server.Error, got %v", err)
	}
	if se.Code != "overloaded" || !se.Retryable {
		t.Errorf("got code=%q retryable=%v, want overloaded/true", se.Code, se.Retryable)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Error("errors.Is(err, ErrOverloaded) = false")
	}
	if s.DB().Metrics().Counter("server_rejected_total").Value() == 0 {
		t.Error("server_rejected_total = 0 after a rejection")
	}
	// Close drains: the parked request must complete successfully.
	s.Close()
	if err := <-parked; err != nil {
		t.Errorf("parked request failed: %v", err)
	}
}

// TestDrainOnClose pins that Close completes in-flight windows (a parked
// query succeeds rather than erroring) and that post-Close traffic gets the
// typed shutdown error.
func TestDrainOnClose(t *testing.T) {
	s, _ := newTestServer(t, Options{Window: 10 * time.Second})
	sess := mustSession(t, s)

	parked := make(chan error, 1)
	go func() {
		_, err := sess.Query(context.Background(), q1)
		parked <- err
	}()
	waitUntil(t, s, "request never reached the window", func() bool { return len(s.pending) == 1 })

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case err := <-parked:
		if err != nil {
			t.Fatalf("parked query failed on drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not flush the parked query")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}

	if _, err := sess.Query(context.Background(), q1); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-Close Query error = %v, want ErrShuttingDown", err)
	}
	if _, err := s.NewSession(); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-Close NewSession error = %v, want ErrShuttingDown", err)
	}
}

// TestMultiStatementDemux coalesces a two-statement request with a
// one-statement request and checks each client gets exactly its own
// statements back in submission order.
func TestMultiStatementDemux(t *testing.T) {
	s, db := newTestServer(t, Options{Window: 200 * time.Millisecond, MaxBatch: 2})
	sa, sb := mustSession(t, s), mustSession(t, s)

	multi := q1 + ";\n" + q2
	var ra, rb *Result
	var ea, eb error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ra, ea = sa.Query(context.Background(), multi) }()
	go func() { defer wg.Done(); rb, eb = sb.Query(context.Background(), q2) }()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatal(ea, eb)
	}
	if len(ra.Statements) != 2 || len(rb.Statements) != 1 {
		t.Fatalf("statement counts = %d/%d, want 2/1", len(ra.Statements), len(rb.Statements))
	}
	da, _ := db.Run(multi)
	dbres, _ := db.Run(q2)
	if err := sameResults(ra.Statements, da.Statements); err != nil {
		t.Errorf("multi-statement client: %v", err)
	}
	if err := sameResults(rb.Statements, dbres.Statements); err != nil {
		t.Errorf("single-statement client: %v", err)
	}
}

// TestParseErrorIsolation pins per-statement error demux: a syntax error
// fails only its submitter, not batch companions.
func TestParseErrorIsolation(t *testing.T) {
	s, _ := newTestServer(t, Options{Window: 200 * time.Millisecond, MaxBatch: 2})
	sa, sb := mustSession(t, s), mustSession(t, s)

	var rb *Result
	var ea, eb error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, ea = sa.Query(context.Background(), "selectx nonsense from") }()
	go func() { defer wg.Done(); rb, eb = sb.Query(context.Background(), q1) }()
	wg.Wait()
	if ea == nil {
		t.Error("bad SQL did not error")
	}
	if eb != nil {
		t.Errorf("innocent companion failed: %v", eb)
	}
	if rb == nil || len(rb.Statements) != 1 {
		t.Error("companion got no results")
	}
}

// TestLexErrorFailsRequest: SQL the lexer or the parser rejects fails its
// request with their error on the client's goroutine, before it joins or
// opens a window, counted as a request and as a failed one.
func TestLexErrorFailsRequest(t *testing.T) {
	s, _ := newTestServer(t, Options{Window: time.Hour})
	s.afterFunc = func(time.Duration, func()) *time.Timer {
		t.Error("a rejected request opened a window")
		return nil
	}
	sess := mustSession(t, s)
	for i, c := range []struct{ sql, want string }{
		{"select 'open from lineitem", "unterminated string literal"},
		{"selectx nonsense from", "syntax error"},
	} {
		_, err := sess.Query(context.Background(), c.sql)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%q: err = %v, want %q", c.sql, err, c.want)
		}
		stats := s.Stats()
		if n := float64(i + 1); stats["server_requests_total"] != n || stats["server_requests_failed_total"] != n {
			t.Errorf("%q: requests_total = %v, requests_failed_total = %v, want %v and %v", c.sql,
				stats["server_requests_total"], stats["server_requests_failed_total"], n, n)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) != 0 || s.inflight != 0 {
		t.Errorf("pending = %d, inflight = %d after rejected requests, want 0 and 0", len(s.pending), s.inflight)
	}
}

// TestPlanCache pins hit, shape normalization, and version invalidation.
func TestPlanCache(t *testing.T) {
	s, db := newTestServer(t, Options{MaxBatch: 1})
	sess := mustSession(t, s)
	ctx := context.Background()

	r1, err := sess.Query(ctx, q1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PlanCached {
		t.Error("first execution reported PlanCached")
	}
	// Same shape modulo whitespace and a trailing semicolon.
	r2, err := sess.Query(ctx, "  "+q1+" ;\n")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.PlanCached {
		t.Error("repeat shape missed the plan cache")
	}
	if err := sameResults(r1.Statements, r2.Statements); err != nil {
		t.Error(err)
	}
	if db.Metrics().Counter("plancache_hits_total").Value() == 0 {
		t.Error("plancache_hits_total = 0")
	}
	if r1.Coalesced != 1 || r2.Coalesced != 1 || db.Metrics().Counter("server_coalesced_batches_total").Value() != 0 {
		t.Error("a MaxBatch 1 server formed a multi-request batch")
	}

	// A version bump on any referenced table invalidates the entry.
	db.Store().Touch("lineitem")
	r3, err := sess.Query(ctx, q1)
	if err != nil {
		t.Fatal(err)
	}
	if r3.PlanCached {
		t.Error("stale plan served after table version bump")
	}
	if db.Metrics().Counter("plancache_invalidations_total").Value() == 0 {
		t.Error("plancache_invalidations_total = 0 after Touch")
	}

	// Literal bytes must stay significant: a different constant is a
	// different shape, never a cache hit on the old plan.
	r4, err := sess.Query(ctx, q1+" , o_orderdate")
	if err == nil && r4.PlanCached {
		t.Error("different query text hit the cache")
	}
}

// TestSessionClosed pins the typed error for a query on a closed session.
func TestSessionClosed(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxBatch: 1})
	sess := mustSession(t, s)
	sess.Close()
	if _, err := sess.Query(context.Background(), q1); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("err = %v, want ErrSessionClosed", err)
	}
	if s.Session(sess.ID()) != nil {
		t.Error("closed session still resolvable")
	}
}

// TestCanceledClientSpoolReuse is the context-threading regression test: a
// client that cancels mid-window gets ctx.Err() immediately, but its
// statements stay in the coalesced batch, the CSE spool they share
// materializes once, and the surviving client's answer is complete and
// correct.
func TestCanceledClientSpoolReuse(t *testing.T) {
	s, db := newTestServer(t, Options{Window: 300 * time.Millisecond, MaxBatch: 8})
	sa, sb := mustSession(t, s), mustSession(t, s)

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := sa.Query(ctxA, q1)
		errA <- err
	}()
	// Wait for A to reach the window, then enqueue B and cancel A while both
	// are parked.
	waitUntil(t, s, "client A never reached the window", func() bool { return len(s.pending) == 1 })

	resB := make(chan *Result, 1)
	errB := make(chan error, 1)
	go func() {
		r, err := sb.Query(context.Background(), q2)
		resB <- r
		errB <- err
	}()
	waitUntil(t, s, "client B never reached the window", func() bool { return len(s.pending) == 2 })
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled client got %v, want context.Canceled", err)
	}

	if err := <-errB; err != nil {
		t.Fatalf("surviving client failed: %v", err)
	}
	rb := <-resB
	// A's statements stayed in the batch even though A is gone.
	if rb.Coalesced != 2 {
		t.Fatalf("Coalesced = %d, want 2 (canceled client's statement must stay in the batch)", rb.Coalesced)
	}
	direct, err := db.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResults(rb.Statements, direct.Statements); err != nil {
		t.Errorf("survivor's results wrong: %v", err)
	}
	// q1 and q2 share a covering subexpression: the batch must have
	// exploited it (proving the canceled client's work was shared, not
	// discarded), and its spool must have materialized rows.
	if db.Metrics().Counter("cse_used_total").Value() == 0 {
		t.Error("cse_used_total = 0: coalesced batch did not share the subexpression")
	}
	if db.Metrics().Counter("spool_rows_total").Value() == 0 {
		t.Error("spool_rows_total = 0: no spool materialized for the shared subexpression")
	}
}

// TestBatchKeyUnambiguous pins the length-prefixed combined key: shapes may
// contain any byte (a NUL inside a literal survives in its shape verbatim), so
// no join separator is safe — only framing is.
func TestBatchKeyUnambiguous(t *testing.T) {
	keys := map[string]string{
		`["ab","c"]`:       batchKey([]string{"ab", "c"}),
		`["a","bc"]`:       batchKey([]string{"a", "bc"}),
		`["ab\x00c"]`:      batchKey([]string{"ab\x00c"}),
		`["ab","","c"]`:    batchKey([]string{"ab", "", "c"}),
		`["ab\x00c",""]`:   batchKey([]string{"ab\x00c", ""}),
		`["2:ab1:c"]`:      batchKey([]string{"2:ab1:c"}),
		`["abc"]`:          batchKey([]string{"abc"}),
		`["ab","c","",""]`: batchKey([]string{"ab", "c", "", ""}),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, ok := seen[k]; ok {
			t.Errorf("batches %s and %s share key %q", prev, name, k)
		}
		seen[k] = name
	}
}

// TestCanceledRequestHoldsAdmissionSlot pins that a client cancellation does
// not release the admission slot early: the canceled request still occupies
// the pending window (or an executing batch), so MaxInflight must keep
// counting it until its batch delivers — otherwise a cancellation storm
// admits more concurrent work than the bound intends.
func TestCanceledRequestHoldsAdmissionSlot(t *testing.T) {
	s, _ := newTestServer(t, Options{Window: 10 * time.Second, MaxInflight: 1, MaxBatch: 64})
	sess := mustSession(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sess.Query(ctx, q1)
		done <- err
	}()
	waitUntil(t, s, "request never became inflight", func() bool { return s.inflight == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Query returned %v, want context.Canceled", err)
	}

	// The canceled request still sits in the open window: its slot must
	// still count against MaxInflight.
	if _, err := sess.Query(context.Background(), q2); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v while a canceled request occupies the window, want ErrOverloaded", err)
	}

	// Close flushes the window and delivers the canceled singleton's
	// response; only then is the slot released.
	s.Close()
	s.mu.Lock()
	n := s.inflight
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("inflight = %d after Close drained, want 0", n)
	}
}

// TestPlanCacheAdmitAfterExecution pins that a plan enters the cache only
// after a successful execution, and that a cached plan failing execution is
// evicted instead of serving the shape forever (hit → fail → retry on every
// future batch). A singleton batch runs under its client's context, so a
// pre-canceled context is a deterministic execution failure after a
// successful prepare. Query returns on the canceled context at once, so the
// test waits for the batch to deliver before reading the cache.
func TestPlanCacheAdmitAfterExecution(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxBatch: 1})
	sess := mustSession(t, s)

	if _, err := sess.Query(context.Background(), q1); err != nil {
		t.Fatal(err)
	}
	if got := s.plans.Len(); got != 1 {
		t.Fatalf("plan cache entries = %d after a successful query, want 1", got)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	// A fresh shape whose execution fails must not be admitted.
	if _, err := sess.Query(canceled, q2); err == nil {
		t.Fatal("query under a canceled context succeeded")
	}
	s.execWG.Wait()
	if got := s.plans.Len(); got != 1 {
		t.Errorf("plan cache entries = %d after a new shape failed execution, want 1", got)
	}

	// A cached shape whose execution fails must be evicted.
	if _, err := sess.Query(canceled, q1); err == nil {
		t.Fatal("query under a canceled context succeeded")
	}
	s.execWG.Wait()
	if got := s.plans.Len(); got != 0 {
		t.Errorf("plan cache entries = %d after the cached plan failed execution, want 0", got)
	}

	// The shape still works once the client context is live again.
	if _, err := sess.Query(context.Background(), q1); err != nil {
		t.Fatal(err)
	}
	if got := s.plans.Len(); got != 1 {
		t.Errorf("plan cache entries = %d after re-running the shape, want 1", got)
	}
}

// TestPlanCacheSameShapeConcurrent pins that concurrent sessions sending one
// shape never share a mutable cache entry: the first batches all miss and
// admit the same key while later ones hit it, so a re-admission that
// rewrote the entry a lookup was reading is a data race under -race.
func TestPlanCacheSameShapeConcurrent(t *testing.T) {
	db := csedb.Open(csedb.Options{})
	if err := db.LoadTPCH(0.001, 1); err != nil {
		t.Fatal(err)
	}
	s := New(db, Options{MaxBatch: 1})
	t.Cleanup(func() { s.Close() })

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 8 {
		sess := mustSession(t, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				if _, err := sess.Query(context.Background(), q1); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanCacheCapacity drives the plan cache past PlanCacheEntries: with
// room for one shape, q2 evicts q1, so q1's second run re-plans and its
// admission evicts q2 in turn.
func TestPlanCacheCapacity(t *testing.T) {
	s, db := newTestServer(t, Options{MaxBatch: 1, PlanCacheEntries: 1})
	sess := mustSession(t, s)
	m := db.Metrics()
	for i, q := range []string{q1, q2, q1} {
		r, err := sess.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if r.PlanCached {
			t.Errorf("run %d served from the plan cache; with one entry every run evicts the other shape", i+1)
		}
		if n, want := m.Counter("plancache_evictions_total").Value(), int64(i); n != want {
			t.Errorf("after run %d: plancache_evictions_total = %d, want %d", i+1, n, want)
		}
		if n := m.Gauge("plancache_entries").Value(); n != 1 {
			t.Errorf("after run %d: plancache_entries = %v, want 1", i+1, n)
		}
	}
}
