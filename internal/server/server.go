// Package server is the serving front end: sessions, bounded admission, and
// a coalescing window that groups similar in-flight queries from different
// sessions into one CSE-optimized batch on the underlying csedb.DB — the
// paper's §6 batch application recreated from live traffic. Results (and
// errors) are demultiplexed per statement back to the submitting clients; a
// plan-shape cache lets repeat batch shapes skip bind and optimize.
//
// Context discipline (load-bearing): a coalesced batch always executes under
// the server's base context, never any individual client's. A client
// context gates only that client's result delivery — a disconnect
// mid-coalesce abandons one delivery while the batch (including any spools
// materialized for the departed client's statements) runs to completion for
// the survivors. The base context is canceled only after Close has drained
// all in-flight batches.
package server

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/csedb"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/parser"
)

// Options configures a server.
type Options struct {
	// Window is the coalescing window: the longest a request waits for
	// companions before its batch executes. 0 means DefaultWindow.
	Window time.Duration

	// MaxBatch is the count trigger: a window flushes early the moment this
	// many requests are pending. 0 means DefaultMaxBatch; 1 is a server that
	// never coalesces, where every request runs alone under its own context.
	MaxBatch int

	// MaxInflight bounds admission: requests beyond this many concurrently
	// in flight (queued or executing) are rejected with ErrOverloaded.
	// 0 means DefaultMaxInflight.
	MaxInflight int

	// PlanCacheEntries sizes the plan-shape cache; 0 means
	// DefaultPlanCacheEntries, negative disables the cache.
	PlanCacheEntries int
}

// Defaults for Options zero values.
const (
	DefaultWindow           = 2 * time.Millisecond
	DefaultMaxBatch         = 16
	DefaultMaxInflight      = 1024
	DefaultPlanCacheEntries = 256
)

// Error is the server's typed error: Code is stable for programmatic
// matching and Retryable tells clients whether backing off and resubmitting
// can succeed.
type Error struct {
	Code      string
	Message   string
	Retryable bool
}

func (e *Error) Error() string { return e.Message }

// Sentinel errors returned by Query and session management.
var (
	ErrOverloaded    = &Error{Code: "overloaded", Message: "server overloaded: too many requests in flight", Retryable: true}
	ErrShuttingDown  = &Error{Code: "shutting_down", Message: "server is shutting down", Retryable: true}
	ErrSessionClosed = &Error{Code: "session_closed", Message: "session is closed", Retryable: false}
)

// Result is one request's outcome.
type Result struct {
	// Statements holds this request's per-statement results, in the order
	// the request's SQL listed them.
	Statements []*exec.StatementResult

	// Coalesced is the number of client requests in the executed batch
	// (1 = the request ran alone).
	Coalesced int

	// Sessions is the number of distinct sessions in the executed batch.
	Sessions int

	// PlanCached reports whether the batch skipped bind and optimize via the
	// plan-shape cache.
	PlanCached bool

	// Wait is the time spent in the coalescing window before execution.
	Wait time.Duration

	// Wall is the request's total server-side time.
	Wall time.Duration
}

type response struct {
	res *Result
	err error
}

// request is one in-flight client query, parsed at admission.
type request struct {
	sess  *Session
	stmts []parser.Statement
	shape string
	ctx   context.Context
	enq   time.Time
	// done is buffered (capacity 1) so delivery never blocks on a client
	// that gave up: a canceled client's response lands in the buffer and is
	// garbage collected with the request.
	done chan response
}

// Server coalesces queries from many sessions into CSE-optimized batches on
// one csedb.DB. The DB's read path is shared; any writes (Insert, DDL) must
// be serialized by the embedder and must not overlap in-flight queries, per
// the csedb.DB contract.
type Server struct {
	db      *csedb.DB
	opts    Options
	metrics *obs.Registry
	// plans maps a batch key to its prepared batch, so a repeat shape skips
	// bind and optimize. It is a cache.LRU costed one per entry and
	// validated, like the spool result cache, against the batch's table
	// versions; nil when the plan cache is off.
	plans *cache.LRU[*csedb.Prepared]

	baseCtx context.Context
	cancel  context.CancelFunc

	// afterFunc arms a window's time trigger: time.AfterFunc, replaced in
	// tests to fire a timer by hand.
	afterFunc func(time.Duration, func()) *time.Timer

	mu       sync.Mutex
	closed   bool
	sessions map[string]*Session
	sessSeq  int
	pending  []*request  // the open window
	window   uint64      // generation of the open window; every flush opens the next
	timer    *time.Timer // the open window's time trigger, once armed; flushLocked stops it
	inflight int

	execWG sync.WaitGroup
}

// New returns a server over db. Close it to drain in-flight batches.
func New(db *csedb.DB, opts Options) *Server {
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.PlanCacheEntries == 0 {
		opts.PlanCacheEntries = DefaultPlanCacheEntries
	}
	var plans *cache.LRU[*csedb.Prepared]
	if opts.PlanCacheEntries > 0 {
		plans = cache.NewLRU[*csedb.Prepared](int64(opts.PlanCacheEntries), "plancache", "entries", db.Metrics())
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		db:        db,
		opts:      opts,
		metrics:   db.Metrics(),
		plans:     plans,
		baseCtx:   ctx,
		cancel:    cancel,
		afterFunc: time.AfterFunc,
		sessions:  make(map[string]*Session),
	}
}

// DB exposes the underlying database (metrics, flight recorder).
func (s *Server) DB() *csedb.DB { return s.db }

// Session is one client's handle; create with NewSession, submit with Query.
// A Session is safe for concurrent use, though a real client typically
// pipelines one query at a time.
type Session struct {
	id  string
	srv *Server

	mu     sync.Mutex
	closed bool
}

// ID returns the session's server-assigned identifier.
func (sess *Session) ID() string { return sess.id }

// NewSession registers a new client session.
func (s *Server) NewSession() (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShuttingDown
	}
	s.sessSeq++
	sess := &Session{id: fmt.Sprintf("s%04d", s.sessSeq), srv: s}
	s.sessions[sess.id] = sess
	s.metrics.Counter("server_sessions_total").Inc()
	s.metrics.Gauge("server_sessions_active").Set(float64(len(s.sessions)))
	return sess, nil
}

// Session looks up a live session by id; nil if unknown or closed.
func (s *Server) Session(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// Close marks the session closed and deregisters it. In-flight queries
// complete normally.
func (sess *Session) Close() {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return
	}
	sess.closed = true
	sess.mu.Unlock()

	s := sess.srv
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.metrics.Gauge("server_sessions_active").Set(float64(len(s.sessions)))
	s.mu.Unlock()
}

func (sess *Session) isClosed() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.closed
}

// Query submits one request — a SELECT statement or a semicolon-separated
// SELECT batch — and blocks until its results are ready or ctx is done.
//
// The request is parsed here, on the caller's goroutine: SQL the parser
// rejects fails its request before it joins a window.
//
// Cancellation: if ctx ends while the request is queued or executing, Query
// returns ctx's error immediately, but the request itself stays in its
// coalesced batch — execution is governed by the server's lifecycle, not
// the client's, so other clients in the batch are unaffected (and still
// reuse any spools the departed client's statements fed). The request's
// admission slot is likewise held until its batch delivers, so MaxInflight
// bounds true occupancy even under cancellation storms.
func (sess *Session) Query(ctx context.Context, sql string) (*Result, error) {
	s := sess.srv
	if sess.isClosed() {
		return nil, ErrSessionClosed
	}

	stmts, shape, err := parser.ParseShaped(sql)
	if err != nil {
		s.metrics.Counter("server_requests_total").Inc()
		s.metrics.Counter("server_requests_failed_total").Inc()
		return nil, err
	}
	r := &request{
		sess:  sess,
		stmts: stmts,
		shape: shape,
		ctx:   ctx,
		enq:   time.Now(),
		done:  make(chan response, 1),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if s.inflight >= s.opts.MaxInflight {
		s.mu.Unlock()
		s.metrics.Counter("server_rejected_total").Inc()
		return nil, ErrOverloaded
	}
	s.inflight++
	s.metrics.Counter("server_requests_total").Inc()
	s.pending = append(s.pending, r)
	switch {
	case len(s.pending) >= s.opts.MaxBatch:
		s.flushLocked()
	case len(s.pending) == 1:
		window := s.window
		s.timer = s.afterFunc(s.opts.Window, func() { s.flushWindow(window) })
	}
	s.mu.Unlock()

	// No inflight decrement here: the slot is released by finish when the
	// request's batch delivers its response. Returning early on ctx.Done
	// must NOT free the slot — the canceled request still occupies the
	// pending window or an executing batch, and releasing early would let a
	// cancellation storm admit more concurrent work than MaxInflight bounds.
	select {
	case resp := <-r.done:
		if resp.err != nil {
			s.metrics.Counter("server_requests_failed_total").Inc()
			return nil, resp.err
		}
		return resp.res, nil
	case <-ctx.Done():
		s.metrics.Counter("server_canceled_total").Inc()
		return nil, ctx.Err()
	}
}

// finish delivers a request's terminal response and releases its admission
// slot. Every request passes through here exactly once — on demux or on a
// batch failure — so inflight tracks true occupancy (window + execution),
// not just clients still waiting.
func (s *Server) finish(r *request, resp response) {
	r.done <- resp
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

// flushWindow is a window's time trigger. A count trigger or Close may have
// flushed that window already, after its timer had fired but before this
// ran; then its generation is stale and it does nothing, so it never cuts
// short the window open now.
func (s *Server) flushWindow(window uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if window == s.window {
		s.flushLocked()
	}
}

// flushLocked hands the open window's requests, if any, to one batch
// goroutine, stops the window's timer and opens the next window. The caller
// holds s.mu, so the batch is registered with execWG before Close can wait
// on it.
func (s *Server) flushLocked() {
	if len(s.pending) == 0 {
		return
	}
	batch := s.pending
	s.pending = nil
	if s.timer != nil { // nil when MaxBatch 1 flushed at the first enqueue
		s.timer.Stop()
		s.timer = nil
	}
	s.window++
	s.execWG.Add(1)
	go func() {
		defer s.execWG.Done()
		s.dispatch(batch)
	}()
}

// Close drains the server: no new sessions or requests are admitted, the
// open window flushes immediately, in-flight batches run to completion, and
// only then is the base context canceled.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.flushLocked()
	s.mu.Unlock()

	s.execWG.Wait()
	s.cancel()
	return nil
}

// dispatch executes one formed batch and demultiplexes results to its
// requests. Requests are shape-sorted so equal shapes are adjacent (stable
// plan-cache keys) and the combined key is order-insensitive. Equal shapes
// lex, and so parse, alike: a cached plan holds exactly the statements of
// the requests that hit it, in the same order.
func (s *Server) dispatch(reqs []*request) {
	start := time.Now()
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].shape < reqs[j].shape })

	shapes := make([]string, len(reqs))
	for i, r := range reqs {
		shapes[i] = r.shape
	}
	key := batchKey(shapes)

	var p *csedb.Prepared
	cached := false
	if s.plans != nil {
		p, cached = s.plans.Get(key, s.db.Store().Versions)
	}
	if !cached {
		var all []parser.Statement
		for _, r := range reqs {
			all = append(all, r.stmts...)
		}
		var err error
		p, err = s.db.PrepareStatements(all)
		if err != nil {
			s.failOrRetrySingles(reqs, err)
			return
		}
	}

	sessions := map[*Session]bool{}
	for _, r := range reqs {
		sessions[r.sess] = true
	}

	// Execute under the server's base context for coalesced batches: no
	// single client's disconnect may kill work shared with others. A
	// singleton batch is exactly one client's work, so its own context may
	// (and should) stop it.
	execCtx := s.baseCtx
	if len(reqs) == 1 {
		execCtx = reqs[0].ctx
	}
	br, err := s.db.ExecutePrepared(execCtx, p, func(root *obs.Span) {
		root.SetAttr("coalesced", len(reqs))
		root.SetAttr("sessions", len(sessions))
		root.SetAttr("plan_cached", cached)
		for _, r := range reqs {
			cs := root.Child("coalesce.request")
			cs.SetAttr("session", r.sess.id)
			cs.SetAttr("wait_us", start.Sub(r.enq).Microseconds())
			cs.End()
		}
	})
	if err != nil {
		if cached {
			// A cached plan that fails execution must not keep serving the
			// shape: left in place, every future batch with this key would
			// hit, fail, and pay the retry-singles fallback again.
			s.plans.Remove(key)
		}
		s.failOrRetrySingles(reqs, err)
		return
	}
	if !cached && s.plans != nil {
		// Admit only after a successful execution so a plan that fails
		// deterministically (e.g. a table dropped between parse and run)
		// never enters the cache. The version snapshot was taken before the
		// optimizer read any statistics, so a plan a write raced is stale
		// on its first lookup.
		s.plans.Put(key, p, 1, p.Versions())
	}

	s.metrics.Counter("server_batches_total").Inc()
	s.metrics.Histogram("server_batch_size").Observe(float64(len(reqs)))
	if len(reqs) > 1 {
		s.metrics.Counter("server_coalesced_batches_total").Inc()
		s.metrics.Counter("server_coalesced_queries_total").Add(int64(len(reqs)))
	}

	off := 0
	for _, r := range reqs {
		n := len(r.stmts)
		res := &Result{
			Statements: br.Statements[off : off+n],
			Coalesced:  len(reqs),
			Sessions:   len(sessions),
			PlanCached: cached,
			Wait:       start.Sub(r.enq),
			Wall:       time.Since(r.enq),
		}
		off += n
		s.metrics.Histogram("server_window_wait_seconds").Observe(res.Wait.Seconds())
		s.metrics.Histogram("server_request_seconds").Observe(res.Wall.Seconds())
		s.finish(r, response{res: res})
	}
}

// failOrRetrySingles handles a combined prepare/execute failure. One bad
// request must not fail innocent companions, so unless the batch was already
// a singleton (or the server is shutting down), each request re-runs alone:
// only the guilty one then sees the error.
func (s *Server) failOrRetrySingles(reqs []*request, err error) {
	if len(reqs) == 1 || s.baseCtx.Err() != nil {
		for _, r := range reqs {
			s.finish(r, response{err: err})
		}
		return
	}
	s.metrics.Counter("server_batch_retries_total").Inc()
	for _, r := range reqs {
		if r.ctx.Err() != nil {
			// The client is gone and nobody shares this work anymore.
			s.finish(r, response{err: r.ctx.Err()})
			continue
		}
		// The retry dispatch delivers (and releases the slot) itself.
		s.dispatch([]*request{r})
	}
}

// Stats snapshots the server's metrics registry (shared with the DB).
func (s *Server) Stats() map[string]float64 { return s.metrics.Snapshot() }

// batchKey combines a batch's per-request shapes into one plan-cache key.
// Each shape is length-prefixed so the combined key is unambiguous even
// when a shape itself contains any would-be separator byte (a NUL inside a
// string literal survives in its shape verbatim): ["ab","c"] and ["a","bc"]
// and ["ab\x00c"] all key differently.
func batchKey(shapes []string) string {
	var b strings.Builder
	n := 0
	for _, sh := range shapes {
		n += len(sh) + 8
	}
	b.Grow(n)
	for _, sh := range shapes {
		b.WriteString(strconv.Itoa(len(sh)))
		b.WriteByte(':')
		b.WriteString(sh)
	}
	return b.String()
}
