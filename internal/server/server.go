// Package server is the serving front end: sessions, bounded admission, and
// a coalescing window that groups similar in-flight queries from different
// sessions into one CSE-optimized batch on the underlying csedb.DB — the
// paper's §6 batch application recreated from live traffic. Results (and
// errors) are demultiplexed per statement back to the submitting clients; a
// plan-shape cache lets repeat batch shapes skip parse/bind/optimize.
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
	// many requests are pending. 0 means DefaultMaxBatch.
	MaxBatch int

	// MaxInflight bounds admission: requests beyond this many concurrently
	// in flight (queued or executing) are rejected with ErrOverloaded.
	// 0 means DefaultMaxInflight.
	MaxInflight int

	// NoCoalesce disables the window: every request executes alone,
	// immediately, on the caller's goroutine. The plan cache still applies.
	NoCoalesce bool

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

	// PlanCached reports whether the batch skipped parse/optimize via the
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

// request is one in-flight client query.
type request struct {
	sess  *Session
	sql   string
	shape string
	ctx   context.Context
	enq   time.Time
	// done is buffered (capacity 1) so delivery never blocks on a client
	// that gave up: a canceled client's response lands in the buffer and is
	// garbage collected with the request.
	done chan response
}

// planEntry is one plan-shape cache value: the prepared batch for a
// normalized batch key, so a repeat shape skips parse, bind and optimize,
// plus the per-request statement counts that demultiplex its results. The
// cache is a cache.LRU costed one per entry and validated, like the spool
// result cache, against the batch's table versions.
type planEntry struct {
	prepared *csedb.Prepared
	counts   []int
}

// Server coalesces queries from many sessions into CSE-optimized batches on
// one csedb.DB. The DB's read path is shared; any writes (Insert, DDL) must
// be serialized by the embedder and must not overlap in-flight queries, per
// the csedb.DB contract.
type Server struct {
	db      *csedb.DB
	opts    Options
	metrics *obs.Registry
	plans   *cache.LRU[planEntry] // nil when the plan cache is off

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	closed   bool
	sessions map[string]*Session
	sessSeq  int
	pending  []*request
	inflight int
	deadline time.Time // flush deadline for the open window; valid when pending is non-empty

	kick      chan struct{}
	flusherWG sync.WaitGroup
	execWG    sync.WaitGroup
}

// New starts a server over db. Close it to drain and release the flusher.
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
	var plans *cache.LRU[planEntry]
	if opts.PlanCacheEntries > 0 {
		plans = cache.NewLRU[planEntry](int64(opts.PlanCacheEntries), "plancache", "entries", db.Metrics())
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		db:       db,
		opts:     opts,
		metrics:  db.Metrics(),
		plans:    plans,
		baseCtx:  ctx,
		cancel:   cancel,
		sessions: make(map[string]*Session),
		kick:     make(chan struct{}, 1),
	}
	if !opts.NoCoalesce {
		s.flusherWG.Add(1)
		go s.flusher()
	}
	return s
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

	r := &request{
		sess:  sess,
		sql:   sql,
		shape: shapeKey(sql),
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
	if s.opts.NoCoalesce {
		// Direct path: execute on the caller's goroutine, registered with
		// execWG (under s.mu, closed just checked) so Close still drains us.
		s.execWG.Add(1)
		s.mu.Unlock()
		func() {
			defer s.execWG.Done()
			s.dispatch([]*request{r})
		}()
	} else {
		s.pending = append(s.pending, r)
		first := len(s.pending) == 1
		if first {
			s.deadline = r.enq.Add(s.opts.Window)
		}
		full := len(s.pending) >= s.opts.MaxBatch
		s.mu.Unlock()
		if full || first {
			s.kickFlusher()
		}
	}

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
// slot. Every request passes through here exactly once — on demux, on a
// per-request parse error, or on a batch failure — so inflight tracks true
// occupancy (window + execution), not just clients still waiting.
func (s *Server) finish(r *request, resp response) {
	r.done <- resp
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

func (s *Server) kickFlusher() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// flusher is the single goroutine that owns the coalescing window: it wakes
// on enqueue kicks and on the window timer, flushes batches when the count
// or time trigger fires, and re-windows any overflow remainder.
func (s *Server) flusher() {
	defer s.flusherWG.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-s.kick:
		case <-timer.C:
		}

		s.mu.Lock()
		now := time.Now()
		for len(s.pending) > 0 && (s.closed || len(s.pending) >= s.opts.MaxBatch || !now.Before(s.deadline)) {
			n := len(s.pending)
			if n > s.opts.MaxBatch {
				n = s.opts.MaxBatch
			}
			batch := s.pending[:n:n]
			s.pending = append([]*request(nil), s.pending[n:]...)
			if len(s.pending) > 0 {
				// Overflow remainder opens a fresh window.
				s.deadline = now.Add(s.opts.Window)
			}
			s.execWG.Add(1)
			go func(b []*request) {
				defer s.execWG.Done()
				s.dispatch(b)
			}(batch)
		}
		rearm := len(s.pending) > 0
		deadline := s.deadline
		closed := s.closed
		s.mu.Unlock()

		if closed && !rearm {
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		if rearm {
			timer.Reset(time.Until(deadline))
		}
	}
}

// Close drains the server: no new sessions or requests are admitted,
// pending windows flush immediately, in-flight batches run to completion,
// and only then is the base context canceled.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.kickFlusher()
	if !s.opts.NoCoalesce {
		s.flusherWG.Wait()
	}
	s.execWG.Wait()
	s.cancel()
	return nil
}

// dispatch executes one formed batch and demultiplexes results to its
// requests. Requests are shape-sorted so equal shapes are adjacent (stable
// plan-cache keys) and the combined key is order-insensitive.
func (s *Server) dispatch(reqs []*request) {
	start := time.Now()
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].shape < reqs[j].shape })

	shapes := make([]string, len(reqs))
	for i, r := range reqs {
		shapes[i] = r.shape
	}
	key := batchKey(shapes)

	var plan planEntry
	cached := false
	if s.plans != nil {
		plan, cached = s.plans.Get(key, s.db.Store().Versions)
	}
	p, counts := plan.prepared, plan.counts
	if !cached {
		// Parse per request so a syntax error fails only its submitter; the
		// rest of the batch proceeds without it.
		var all []parser.Statement
		counts = counts[:0]
		ok := reqs[:0]
		for _, r := range reqs {
			stmts, err := parser.Parse(r.sql)
			if err != nil {
				s.finish(r, response{err: err})
				continue
			}
			all = append(all, stmts...)
			counts = append(counts, len(stmts))
			ok = append(ok, r)
		}
		reqs = ok
		if len(reqs) == 0 {
			return
		}
		if len(reqs) != len(shapes) {
			// Some requests were dropped: re-key over the survivors, or a
			// future batch matching the original key would demux against the
			// wrong request list.
			shapes = shapes[:0]
			for _, r := range reqs {
				shapes = append(shapes, r.shape)
			}
			key = batchKey(shapes)
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
		s.plans.Put(key, planEntry{p, counts}, 1, p.Versions())
	}

	s.metrics.Counter("server_batches_total").Inc()
	s.metrics.Histogram("server_batch_size").Observe(float64(len(reqs)))
	if len(reqs) > 1 {
		s.metrics.Counter("server_coalesced_batches_total").Inc()
		s.metrics.Counter("server_coalesced_queries_total").Add(int64(len(reqs)))
	}

	off := 0
	for i, r := range reqs {
		n := counts[i]
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
// string literal survives shapeKey verbatim): ["ab","c"] and ["a","bc"]
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

// shapeKey normalizes a request's SQL to its coalescing shape: runs of
// whitespace collapse to one space, `--` line comments are stripped (the
// lexer skips them, so they must not distinguish — or conflate — shapes),
// and trailing semicolons drop, but bytes inside single-quoted string
// literals are preserved verbatim ('a  b' and 'a b' are different values,
// not the same shape). Case is preserved — equality stays strictly
// semantics-preserving.
//
// Comment handling is the load-bearing part: a newline both separates
// tokens and terminates a comment, so collapsing it blindly would merge
// "SELECT a FROM t --c WHERE a=1" (WHERE swallowed by the comment) with
// "SELECT a FROM t\n--c\nWHERE a=1" (WHERE active) into one shape and a
// plan-cache hit would then run the wrong plan. Mirroring the lexer —
// comment bytes vanish, the terminating newline survives as whitespace —
// keeps shape equality aligned with token equality.
func shapeKey(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	inStr, space := false, false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inStr {
			b.WriteByte(c)
			if c == '\'' {
				if i+1 < len(sql) && sql[i+1] == '\'' {
					b.WriteByte('\'')
					i++
				} else {
					inStr = false
				}
			}
			continue
		}
		if c == '-' && i+1 < len(sql) && sql[i+1] == '-' {
			for i < len(sql) && sql[i] != '\n' {
				i++
			}
			// i now sits on the terminating newline (or end of input); the
			// whitespace case below records it so adjacent tokens stay split.
			if i == len(sql) {
				break
			}
			c = sql[i]
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			space = true
		case '\'':
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			inStr = true
			b.WriteByte(c)
		default:
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			b.WriteByte(c)
		}
	}
	out := b.String()
	for strings.HasSuffix(out, ";") {
		out = strings.TrimSpace(strings.TrimSuffix(out, ";"))
	}
	return out
}
