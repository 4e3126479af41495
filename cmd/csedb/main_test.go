package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/csedb"
	"repro/internal/bench"
)

// newTestShell returns a shell on an sf 0.001 TPC-H database opened with
// the default knobs, and the buffer its errors go to.
func newTestShell(t *testing.T) (*shell, *bytes.Buffer) {
	t.Helper()
	k := newKnobs()
	db := csedb.Open(k.options())
	if err := db.LoadTPCH(0.001, 42); err != nil {
		t.Fatal(err)
	}
	errOut := &bytes.Buffer{}
	sh := &shell{knobs: k, maxRows: 20, out: &bytes.Buffer{}, errOut: errOut}
	sh.db.Store(db)
	return sh, errOut
}

// TestSetReopensOverSameData: \set yields a database with the option
// changed that still sees the loaded tables.
func TestSetReopensOverSameData(t *testing.T) {
	sh, errOut := newTestShell(t)
	before := sh.db.Load()
	db, quit := sh.handleMeta(`\set parallelism 1`)
	if quit || errOut.Len() > 0 {
		t.Fatalf("\\set parallelism 1: quit=%v, errors %q", quit, errOut)
	}
	if db == before || db != sh.db.Load() {
		t.Fatal("\\set did not move the shell to a new database")
	}
	if got := db.ExecParallelism(); got != 1 {
		t.Errorf("ExecParallelism() = %d, want 1", got)
	}
	names := db.Catalog().Names()
	for _, table := range []string{"customer", "lineitem", "nation", "orders", "part", "partsupp", "region", "supplier"} {
		if !slices.Contains(names, table) {
			t.Errorf("table %s missing after \\set; catalog has %v", table, names)
		}
	}
}

// TestSetRejectsInvalid: an unknown name or a value the flag refuses prints
// an error and keeps the shell on the same database and knobs.
func TestSetRejectsInvalid(t *testing.T) {
	for _, cmd := range []string{`\set search bogus`, `\set nosuch 1`} {
		sh, errOut := newTestShell(t)
		before := sh.db.Load()
		db, quit := sh.handleMeta(cmd)
		if quit {
			t.Fatalf("%s quit the shell", cmd)
		}
		if db != before || sh.db.Load() != before {
			t.Errorf("%s replaced the database", cmd)
		}
		if errOut.Len() == 0 {
			t.Errorf("%s printed no error", cmd)
		}
		if got := sh.knobs.search.String(); got != "auto" {
			t.Errorf("%s left search = %q, want auto", cmd, got)
		}
	}
}

// TestSetNoCSE: after \set no-cse true a batch that shares is planned
// without candidates.
func TestSetNoCSE(t *testing.T) {
	sh, _ := newTestShell(t)
	batch := bench.Example1Q1 + ";" + bench.Example1Q2
	res, err := sh.db.Load().Run(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates == 0 {
		t.Fatal("the two-query batch has no CSE candidates with CSE on; the check below would prove nothing")
	}
	db, _ := sh.handleMeta(`\set no-cse true`)
	if res, err = db.Run(batch); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 0 {
		t.Errorf("%d CSE candidates after \\set no-cse true, want 0", res.Stats.Candidates)
	}
}

// TestSetKeepsDebugListener: \set of an option other than debug swaps the
// database under the debug listener without touching its socket, so a
// keep-alive connection opened before \set parallelism 1 reads the new
// database's /metrics after it.
func TestSetKeepsDebugListener(t *testing.T) {
	sh, errOut := newTestShell(t)
	sh.knobs.debug = "127.0.0.1:0"
	if err := sh.listenDebug(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.debug.Close() })
	errOut.Reset() // the listener's announcement
	var dials atomic.Int32
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		},
	}}
	metrics := func() string {
		t.Helper()
		resp, err := client.Get("http://" + sh.knobs.debug + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: %d, %v", resp.StatusCode, err)
		}
		return string(body)
	}
	run := func(n int) {
		t.Helper()
		for range n {
			if _, err := sh.db.Load().Run("select n_name from nation"); err != nil {
				t.Fatal(err)
			}
		}
	}

	run(1)
	if m := metrics(); !strings.Contains(m, "csedb_batches_total 1\n") {
		t.Fatalf("/metrics before \\set does not count the one batch:\n%s", m)
	}
	if _, quit := sh.handleMeta(`\set parallelism 1`); quit || errOut.Len() > 0 {
		t.Fatalf("\\set parallelism 1: quit=%v, errors %q", quit, errOut)
	}
	run(2)
	if m := metrics(); !strings.Contains(m, "csedb_batches_total 2\n") {
		t.Errorf("/metrics after \\set is not the new database's, which ran two batches:\n%s", m)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("the client dialed %d connections, want 1: \\set closed the keep-alive connection", n)
	}

	// Scrapes keep reading the current database while \set swaps it.
	done, scraping, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			if i == 1 {
				close(scraping)
			}
			select {
			case <-done:
				return
			default:
			}
			resp, err := client.Get("http://" + sh.knobs.debug + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the read matters
			resp.Body.Close()
		}
	}()
	select {
	case <-scraping:
	case <-stopped:
	}
	for _, p := range []string{"2", "1", "2", "1"} {
		sh.handleMeta(`\set parallelism ` + p)
		run(1)
	}
	close(done)
	<-stopped
	if errOut.Len() > 0 {
		t.Errorf("\\set printed errors %q", errOut)
	}
}

// TestServeProcess builds csedb and runs it with -serve, as the serve.http
// benchmark does, and -debug: it announces both listeners on stderr, answers
// POST /v1/session and POST /v1/query and serves the debug /metrics, and on
// SIGTERM finishes a request still waiting in its window and exits 0.
func TestServeProcess(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "csedb")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-sf", "0.001", "-serve", "127.0.0.1:0", "-serve-window", "1s", "-debug", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill() //nolint:errcheck // the test failed with the process running
			cmd.Wait()         //nolint:errcheck
		}
	}()

	var serveURL, debugURL string
	sc := bufio.NewScanner(stderr)
	for serveURL == "" && sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "serving on "); ok {
			serveURL = strings.Fields(rest)[0]
		}
		if rest, ok := strings.CutPrefix(sc.Text(), "debug server listening on "); ok {
			debugURL = strings.Fields(rest)[0]
		}
	}
	if serveURL == "" || debugURL == "" {
		t.Fatalf("stderr announced serve %q and debug %q", serveURL, debugURL)
	}
	drained := make(chan struct{})
	go func() { io.Copy(io.Discard, stderr); close(drained) }() //nolint:errcheck

	client := &http.Client{Timeout: 10 * time.Second}
	post := func(path, body string, out any) {
		t.Helper()
		resp, err := client.Post(serveURL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s: %d", path, resp.StatusCode)
			return
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("POST %s: %v", path, err)
		}
	}
	var sess struct{ Session string }
	post("/v1/session", "", &sess)
	query := `{"session": "` + sess.Session + `", "sql": "select n_name from nation where n_nationkey < 3"}`
	var first struct{ Statements []struct{ Rows [][]any } }
	post("/v1/query", query, &first)
	if len(first.Statements) != 1 || len(first.Statements[0].Rows) != 3 {
		t.Fatalf("/v1/query answered %+v, want one statement of 3 rows", first)
	}
	resp, err := client.Get(debugURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "server_requests_total 1\n") {
		t.Errorf("debug /metrics does not count the served request:\n%s", metrics)
	}

	// Park a second query in its one-second window, then SIGTERM.
	var inflight struct{ Statements []struct{ Rows [][]any } }
	answered := make(chan struct{})
	go func() { post("/v1/query", query, &inflight); close(answered) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats map[string]float64
		resp, err := client.Get(serveURL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats["server_requests_total"] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second query never reached the window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-answered
	if len(inflight.Statements) != 1 || len(inflight.Statements[0].Rows) != 3 {
		t.Errorf("the query in flight at SIGTERM answered %+v, want one statement of 3 rows", inflight)
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("csedb -serve did not exit within 10 s of SIGTERM")
	}
	exited = true
	if err := cmd.Wait(); err != nil {
		t.Errorf("csedb -serve after SIGTERM: %v, want exit 0", err)
	}
}
