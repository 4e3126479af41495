package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/csedb"
	"repro/internal/qgen"
	"repro/internal/sqltypes"
)

// reaper stops every child process this program started, on whatever path
// the program leaves by: normal return, error, panic or signal.
type reaper struct {
	mu    sync.Mutex
	procs []*exec.Cmd
}

func (r *reaper) watch(cmd *exec.Cmd) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.procs = append(r.procs, cmd)
}

// stop asks cmd to drain (SIGTERM), kills it if it has not gone within the
// grace period, and waits until it has ended.
func (r *reaper) stop(cmd *exec.Cmd) {
	r.mu.Lock()
	found := false
	for i, p := range r.procs {
		if p == cmd {
			r.procs = append(r.procs[:i], r.procs[i+1:]...)
			found = true
			break
		}
	}
	r.mu.Unlock()
	if !found {
		return
	}
	_ = cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait below says so
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait() // exit status of a stopped server carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = cmd.Process.Kill()
		<-done
	}
}

func (r *reaper) stopAll() {
	r.mu.Lock()
	procs := append([]*exec.Cmd(nil), r.procs...)
	r.mu.Unlock()
	for _, p := range procs {
		r.stop(p)
	}
}

const buildDir = ".bench_build"

// buildServer compiles cmd/csedb into the checkout's build directory. The
// go tool's own cache makes the second call cheap.
func buildServer(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "csedb"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/csedb")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/csedb: %w", err)
	}
	return bin, nil
}

const (
	serveSF        = 0.01
	servePoolSize  = 16
	serveFreshRate = 0.15
	// servePoolSeed fixes the sixteen pooled shapes for the same reason
	// searchSkeletons fixes the large batches: the median request is a pooled
	// one, so a pool drawn afresh from each seed would make lat_p50_ms a
	// property of the draw. The data is fixed too (serveDataSeed): ten data
	// seeds moved all three metrics together over a 5.5% range, twice what
	// five runs of one seed show. The run's seed decides which shape each
	// request asks for, which requests are fresh and every fresh literal.
	servePoolSeed = 7
	serveDataSeed = 42
	// A fresh query is a pooled shape whose date cutoff is moved by up to
	// freshDays either way: the traffic a plan cache keyed on literals misses
	// on in practice, and close enough in cost to the pooled shapes that
	// lat_p95_ms measures the plan-miss path and not a draw of join graphs.
	freshDays     = 120
	trafficPrefix = 500
)

var servingLine = regexp.MustCompile(`serving on http://(\S+)`)

// serveHTTP drives the real program: csedb -serve as a subprocess, over
// keep-alive HTTP connections, one session and one statement per request.
type serveHTTP struct {
	reap *reaper
	bin  string

	seed     int64
	clients  int
	cmd      *exec.Cmd
	base     string
	http     *http.Client
	sessions []string
	shapes   *qgen.Batch // the pooled queries, kept to derive fresh ones from
	pool     []string
	man      manifest
}

func newServeHTTP(reap *reaper, bin string) *serveHTTP {
	clients := runtime.NumCPU()
	if clients > 4 {
		clients = 4
	}
	if clients < 2 {
		clients = 2
	}
	return &serveHTTP{reap: reap, bin: bin, clients: clients}
}

func (w *serveHTTP) manifest() manifest { return w.man }

func (w *serveHTTP) setup(ctx context.Context, seed int64) error {
	w.seed = seed
	b := qgen.New(qgen.Config{Seed: servePoolSeed, MinQueries: servePoolSize, MaxQueries: servePoolSize, NoCTE: true}).Batch()
	w.shapes = b
	w.man = manifest{Seed: seed, Clients: w.clients}
	for i, q := range b.Queries {
		sql := q.SQL(b.Schema, i)
		if w.freshSQL(i, 1) == sql {
			return fmt.Errorf("pooled shape %d has no date cutoff to derive fresh queries from", i)
		}
		w.pool = append(w.pool, sql)
		w.man.SQLHashes = append(w.man.SQLHashes, sqlHash(sql))
		w.man.BatchSizes = append(w.man.BatchSizes, 1)
	}

	w.cmd = exec.Command(w.bin, "-serve", "127.0.0.1:0", "-sf", strconv.FormatFloat(serveSF, 'g', -1, 64), "-seed", strconv.Itoa(serveDataSeed))
	stderr, err := w.cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := w.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", w.bin, err)
	}
	w.reap.watch(w.cmd)
	addr := make(chan string, 1)
	go func() {
		// Keeps reading after the address line so the server never blocks on
		// a full pipe; ends when the process closes its stderr.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		w.base = "http://" + a
	case <-time.After(60 * time.Second):
		return errors.New("csedb -serve did not report its address within 60 s")
	case <-ctx.Done():
		return ctx.Err()
	}

	w.http = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: w.clients,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
	}
	for i := 0; i < w.clients; i++ {
		resp, err := w.http.Post(w.base+"/v1/session", "application/json", nil)
		if err != nil {
			return fmt.Errorf("opening session: %w", err)
		}
		var s struct {
			Session string `json:"session"`
		}
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil || s.Session == "" {
			return fmt.Errorf("opening session: status %d, %v", resp.StatusCode, err)
		}
		w.sessions = append(w.sessions, s.Session)
	}
	// Warm-up: every pooled shape once, so column shadows are built and the
	// single-shape plans are cached before the first timed request.
	for _, sql := range w.pool {
		if r := w.post(0, sql); r.status != http.StatusOK {
			return fmt.Errorf("warm-up request: status %d: %s", r.status, r.body)
		}
	}
	return nil
}

func (w *serveHTTP) close() {
	if w.cmd != nil {
		w.reap.stop(w.cmd)
		w.cmd = nil
	}
	if w.http != nil {
		w.http.CloseIdleConnections()
	}
}

// reply is one request as the client saw it.
type reply struct {
	sql    string
	fresh  bool
	start  time.Time
	took   time.Duration
	status int // 0 = transport error
	err    error
	body   []byte
}

func (w *serveHTTP) post(client int, sql string) reply {
	payload, _ := json.Marshal(map[string]string{"session": w.sessions[client], "sql": sql}) // two strings always marshal
	r := reply{sql: sql, start: time.Now()}
	resp, err := w.http.Post(w.base+"/v1/query", "application/json", bytes.NewReader(payload))
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.took = time.Since(r.start)
	r.err = err
	return r
}

// freshSQL renders pooled shape i with its date cutoff moved by days.
func (w *serveHTTP) freshSQL(i, days int) string {
	q := w.shapes.Clone().Queries[i]
	for j, p := range q.Preds {
		if p.Kind == qgen.PredDateLT {
			moved := sqltypes.MustParseDate(p.Date).Days() + int64(days)
			q.Preds[j].Date = sqltypes.NewDate(moved).String()
			break
		}
	}
	return q.SQL(w.shapes.Schema, i)
}

// drive sends requests from every client, closed loop, for d.
func (w *serveHTTP) drive(ctx context.Context, d time.Duration) ([]reply, time.Duration) {
	perClient := make([][]reply, w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.seed*1000 + int64(c)))
			sent := map[string]bool{}
			for time.Since(start) < d && ctx.Err() == nil {
				shape := rng.Intn(len(w.pool))
				sql, fresh := w.pool[shape], false
				if rng.Float64() < serveFreshRate {
					// Never repeated: a client redraws until the text is new to
					// it, and the clients draw day offsets from disjoint
					// residue classes.
					for fresh = true; sent[sql] || sql == w.pool[shape]; {
						sql = w.freshSQL(shape, rng.Intn(2*freshDays/w.clients)*w.clients+c-freshDays)
					}
					sent[sql] = true
				}
				r := w.post(c, sql)
				r.fresh = fresh
				perClient[c] = append(perClient[c], r)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	// A run sends as many requests as fit in d, so the manifest's sum covers
	// each client's first trafficPrefix requests: the same seed must give the
	// same sum on a faster or slower day.
	traffic := ""
	var all []reply
	for _, rs := range perClient {
		for i, r := range rs {
			if i < trafficPrefix {
				traffic += sqlHash(r.sql)
			}
		}
		all = append(all, rs...)
	}
	w.man.TrafficSum = sqlHash(traffic)
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	return all, wall
}

// check classifies every reply, compares every 200 body with the oracle for
// its SQL on the same data, and fills the section.
func (w *serveHTTP) check(ctx context.Context, replies []reply, wall time.Duration) (*section, error) {
	sec := &section{busy: wall}
	db := csedb.Open(csedb.Options{CacheBudget: -1})
	if err := db.LoadTPCH(serveSF, serveDataSeed); err != nil {
		return nil, err
	}
	distinct := map[string]bool{}
	for _, r := range replies {
		distinct[r.sql] = true
	}

	// The oracle runs once per distinct SQL, on as many goroutines as there
	// are CPUs: reads of one csedb.DB may overlap.
	sqls := sortedKeys(distinct)
	want := make(map[string][]canonStmt, len(sqls))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan string)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sql := range next {
				c, err := oracleRun(ctx, db, sql)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				want[sql] = c
				mu.Unlock()
			}
		}()
	}
	for _, sql := range sqls {
		next <- sql
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	note := ""
	for _, r := range replies {
		sec.tally.Attempted++
		switch {
		case r.err != nil && os.IsTimeout(r.err):
			sec.tally.TimedOut++
		case r.err != nil:
			sec.tally.Errored++
			note = fmt.Sprintf("request failed: %v", r.err)
		case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
			sec.tally.Refused++
		case r.status == 499:
			sec.tally.TimedOut++
		case r.status != http.StatusOK:
			sec.tally.Errored++
			note = fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
		default:
			got, err := canonJSON(r.body)
			if err == nil {
				if d := diffCanon(got, want[r.sql]); d != "" {
					err = errors.New(d)
				}
			}
			if err != nil {
				sec.tally.Wrong++
				note = fmt.Sprintf("wrong answer for request %s: %v", sqlHash(r.sql), err)
				continue
			}
			sec.lat.add(float64(r.took.Nanoseconds()) / 1e6)
			sec.stmts++
		}
	}
	if note != "" {
		fmt.Printf("# serve.http: %s\n", note)
	}
	return sec, nil
}

func (w *serveHTTP) measure(ctx context.Context, d time.Duration) (*section, error) {
	replies, wall := w.drive(ctx, d)
	return w.check(ctx, replies, wall)
}

// stats fetches the server's metric snapshot.
func (w *serveHTTP) stats() (map[string]float64, error) {
	resp, err := w.http.Get(w.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]float64
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// trace measures the serving layers from outside: the server reports in
// every response how long the request waited in the coalescing window and
// how long it spent in the server in all, and /v1/stats reports the
// counters. Nothing is switched on in the server and nothing is decoded
// until the requests are over, so this run costs what the timing run costs.
func (w *serveHTTP) trace(ctx context.Context, d time.Duration) (*section, map[string]float64, *tracer, error) {
	before, err := w.stats()
	if err != nil {
		return nil, nil, nil, err
	}
	tr := &tracer{start: time.Now()}
	replies, wall := w.drive(ctx, d)
	after, err := w.stats()
	if err != nil {
		return nil, nil, nil, err
	}
	sec, err := w.check(ctx, replies, wall)
	if err != nil {
		return nil, nil, nil, err
	}

	var n, waitMS, batchMS, overheadMS, coalesced, planHits float64
	for op, r := range replies {
		if r.status != http.StatusOK {
			continue
		}
		var meta struct {
			Coalesced  int   `json:"coalesced"`
			PlanCached bool  `json:"plan_cached"`
			WaitUS     int64 `json:"wait_us"`
			WallUS     int64 `json:"wall_us"`
		}
		if err := json.Unmarshal(r.body, &meta); err != nil {
			continue
		}
		n++
		tookUS := r.took.Microseconds()
		overUS := tookUS - meta.WallUS
		waitMS += float64(meta.WaitUS) / 1000
		batchMS += float64(meta.WallUS-meta.WaitUS) / 1000
		overheadMS += float64(overUS) / 1000
		coalesced += float64(meta.Coalesced)
		if meta.PlanCached {
			planHits++
		}
		// The server's interval is placed in the middle of the client's:
		// the response says how long it was, not when it began.
		startUS := tr.sinceUS(r.start)
		srvUS := startUS + overUS/2
		root := tr.log.add(-1, op, "request", startUS, startUS+tookUS, map[string]any{
			"fresh": r.fresh, "coalesced": meta.Coalesced, "plan_cached": meta.PlanCached, "sql": sqlHash(r.sql)})
		tr.log.add(root, op, "wait", srvUS, srvUS+meta.WaitUS, nil)
		tr.log.add(root, op, "batch", srvUS+meta.WaitUS, srvUS+meta.WallUS, nil)
	}
	if n == 0 {
		return nil, nil, nil, errors.New("serve.http: no request completed")
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	lookups := delta("cache_hits_total") + delta("cache_misses_total")
	m := map[string]float64{
		"traced_ops":           n,
		"op_ms":                (waitMS + batchMS + overheadMS) / n,
		"wait_ms":              waitMS / n,
		"batch_ms":             batchMS / n,
		"http_overhead_ms":     overheadMS / n,
		"coalesced_mean":       coalesced / n,
		"plan_cache_hit_ratio": planHits / n,
		"server_rejects":       delta("server_rejected_total"),
		"exec_ms":              delta("exec_seconds_sum") * 1000 / n,
		"candidates":           delta("cse_candidates_total") / n,
		"optimizer_calls":      delta("cse_reoptimizations_total") / n,
		"pruned_h1":            delta("cse_pruned_h1_total") / n,
		"pruned_h2":            delta("cse_pruned_h2_total") / n,
		"pruned_h3":            delta("cse_pruned_h3_total") / n,
		"pruned_h4":            delta("cse_pruned_h4_total") / n,
		"spool_rows":           delta("spool_rows_total") / n,
		"col_selections":       delta("exec_col_selections_total") / n,
		"cache_lookups":        lookups / n,
		"cache_hit_ratio":      ratio(delta("cache_hits_total"), lookups),
		"cache_invalidations":  delta("cache_invalidations_total") / n,
		"cache_evictions":      delta("cache_evictions_total") / n,
		"cache_rejected":       delta("cache_rejected_total") / n,
		"cache_bytes":          after["cache_bytes"],
	}
	m["exec_share"] = ratio(m["exec_ms"], m["op_ms"])
	return sec, m, tr, nil
}
