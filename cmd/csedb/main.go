// Command csedb is an interactive shell and batch runner for the engine.
//
// Usage:
//
//	csedb -sf 0.05                       # interactive shell on TPC-H data
//	csedb -sf 0.05 -f queries.sql        # run a SQL file as one batch
//	csedb -sf 0.05 -e "select ...; ..."  # run a batch from the command line
//	csedb -explain -e "..."              # show the plan instead of rows
//	csedb -serve 127.0.0.1:8632          # HTTP/JSON server with coalescing
//
// Shell meta-commands:
//
//	\explain            show the next batch's optimized plan, not its rows
//	\explain analyze    execute the next batch and show the plan with actuals
//	\describe           show the next batch's CSE candidates and decisions
//	\set                list the options and their values
//	\set name value     reopen the database over the same data with one option
//	                    changed; the names are the option flags below
//	                    (\set no-cse true, \set debug 127.0.0.1:0, \set debug "").
//	                    Metrics, the flight recorder and the result cache
//	                    start fresh on the new database.
//	\metrics            dump the metrics registry
//	\cache              show cross-batch result-cache state and counters
//	\cache clear        drop every cached spool result
//	\tables             list tables
//	\q                  quit
//
// The options are -no-cse, -no-heuristics, -search, -parallelism, -colplane,
// -trace, -no-cache and -debug; one flag set declares them for both the
// command line and \set.
//
// Input accumulates until a line containing only "go" (SQL Server style),
// which runs everything buffered as ONE optimized batch — the way to
// exercise multi-query optimization interactively. Separate statements
// within the batch with semicolons.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/csedb"
	"repro/internal/core"
	"repro/internal/server"
)

// knobs are the database options. Their one flag set is added to the
// command line by main and changed one flag at a time by the shell's \set.
type knobs struct {
	fs           *flag.FlagSet
	noCSE        bool
	noHeuristics bool
	search       searchFlag
	parallelism  int
	colPlane     bool
	trace        bool
	noCache      bool
	debug        string
}

func newKnobs() *knobs {
	k := &knobs{search: searchFlag(core.SearchAuto)}
	fs := flag.NewFlagSet("options", flag.ContinueOnError)
	fs.BoolVar(&k.noCSE, "no-cse", false, "disable CSE optimization")
	fs.BoolVar(&k.noHeuristics, "no-heuristics", false, "disable the §4.3 candidate pruning heuristics")
	fs.Var(&k.search, "search", "MQO subset-search `strategy`: auto|lattice|greedy")
	fs.IntVar(&k.parallelism, "parallelism", 0, "executor worker pool: 0=GOMAXPROCS (parallel, default), 1=sequential, n>1=n workers")
	fs.BoolVar(&k.colPlane, "colplane", true, "use the columnar data plane; false forces the row-at-a-time oracle path")
	fs.BoolVar(&k.trace, "trace", false, "record the optimizer decision trace and print it after each batch")
	fs.BoolVar(&k.noCache, "no-cache", false, "disable the cross-batch spool result cache")
	fs.StringVar(&k.debug, "debug", "", "start the debug HTTP server on this address and enable span tracing (e.g. 127.0.0.1:6060)")
	k.fs = fs
	return k
}

// options is the database configuration the knobs describe.
func (k *knobs) options() csedb.Options {
	s := core.DefaultSettings()
	s.EnableCSE = !k.noCSE
	s.Heuristics = !k.noHeuristics
	s.SearchStrategy = core.SearchStrategy(k.search)
	opts := csedb.Options{
		CSE:             &s,
		ExecParallelism: k.parallelism,
		Tracing:         k.trace,
		SpanTracing:     k.debug != "",
		DisableColPlane: !k.colPlane,
	}
	if k.noCache {
		opts.CacheBudget = -1
	}
	return opts
}

// searchFlag is a subset-search strategy flag that accepts only the known
// strategies.
type searchFlag core.SearchStrategy

func (s *searchFlag) String() string { return string(*s) }

func (s *searchFlag) Set(v string) error {
	strategy, err := core.ParseSearchStrategy(v)
	if err != nil {
		return err
	}
	*s = searchFlag(strategy)
	return nil
}

func main() {
	k := newKnobs()
	k.fs.VisitAll(func(f *flag.Flag) { flag.Var(f.Value, f.Name, f.Usage) })
	var (
		sf      = flag.Float64("sf", 0.05, "TPC-H scale factor")
		seed    = flag.Int64("seed", 42, "data generation seed")
		file    = flag.String("f", "", "SQL file to execute as one batch")
		execSQL = flag.String("e", "", "SQL batch to execute")
		explain = flag.Bool("explain", false, "print plans instead of executing")
		maxRows = flag.Int("max-rows", 20, "rows printed per statement")

		serveAddr     = flag.String("serve", "", "serve HTTP/JSON queries on this address instead of running a shell (e.g. 127.0.0.1:8632; \":0\" picks a port)")
		serveWindow   = flag.Duration("serve-window", 0, "coalescing window for -serve (0 = server default)")
		serveBatch    = flag.Int("serve-max-batch", 0, "count trigger for -serve: flush the window at this many pending requests (0 = default, 1 = never coalesce)")
		serveInflight = flag.Int("serve-max-inflight", 0, "admission bound for -serve: reject beyond this many in-flight requests (0 = default)")
		servePlans    = flag.Int("serve-plan-cache", 0, "plan-shape cache entries for -serve (0 = default, negative disables)")
	)
	flag.Parse()

	db := csedb.Open(k.options())
	sh := &shell{knobs: k, maxRows: *maxRows, out: os.Stdout, errOut: os.Stderr}
	sh.db.Store(db)
	if err := sh.listenDebug(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loading TPC-H data (sf=%g, seed=%d)...\n", *sf, *seed)
	if err := db.LoadTPCH(*sf, *seed); err != nil {
		fatal(err)
	}

	switch {
	case *serveAddr != "":
		serve(db, *serveAddr, server.Options{
			Window:           *serveWindow,
			MaxBatch:         *serveBatch,
			MaxInflight:      *serveInflight,
			PlanCacheEntries: *servePlans,
		})
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		runBatch(db, string(data), *explain, *maxRows)
	case *execSQL != "":
		runBatch(db, *execSQL, *explain, *maxRows)
	default:
		repl(sh)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "csedb: %v\n", err)
	os.Exit(1)
}

// listen binds addr (":0" picks a free port) and serves h on it in the
// background. It returns the server, to stop it with, and the bound
// address. Both -serve and -debug listen through it.
func listen(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed once stopped
	return srv, ln.Addr().String(), nil
}

// serve runs the HTTP/JSON serving layer until SIGINT/SIGTERM, then drains:
// the listener stops and in-flight requests get a 5 s grace, then the open
// coalescing window flushes and its batches complete, and only then does
// the process exit.
func serve(db *csedb.DB, addr string, opts server.Options) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	srv := server.New(db, opts)
	hs, bound, err := listen(addr, srv.Handler())
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "serving on http://%s (POST /v1/session, POST /v1/query, GET /v1/stats)\n", bound)

	<-sig
	fmt.Fprintln(os.Stderr, "shutting down: draining in-flight batches...")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx) //nolint:errcheck // past the grace, Close still drains the window
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

func runBatch(db *csedb.DB, sql string, explain bool, maxRows int) {
	if explain {
		plan, err := db.Explain(sql)
		if err != nil {
			fatal(err)
		}
		fmt.Println(plan)
		return
	}
	res, err := db.Run(sql)
	if err != nil {
		fatal(err)
	}
	printResult(res, maxRows)
}

func printResult(res *csedb.BatchResult, maxRows int) {
	for i, st := range res.Statements {
		if len(res.Statements) > 1 {
			fmt.Printf("-- statement %d (%d rows)\n", i+1, len(st.Rows))
		}
		fmt.Println(strings.Join(st.Names, "\t"))
		for r, row := range st.Rows {
			if r >= maxRows {
				fmt.Printf("... (%d more rows)\n", len(st.Rows)-maxRows)
				break
			}
			fmt.Println(row.String())
		}
	}
	fmt.Printf("-- optimized in %v (est cost %.2f", res.OptimizeTime, res.EstimatedCost)
	if res.Stats.Candidates > 0 {
		fmt.Printf(", %d CSE candidates, %d used", res.Stats.Candidates, len(res.Stats.UsedCSEs))
	}
	fmt.Printf("), executed in %v", res.ExecTime)
	if es := res.ExecStats; es != nil {
		fmt.Printf(" (%d workers, %.0f%% utilized, busy %v)",
			es.Workers, 100*es.Utilization(), es.BusyTime.Round(time.Microsecond))
	}
	fmt.Println()
	if res.Trace != nil {
		fmt.Println("-- optimizer trace")
		fmt.Print(res.Trace.Text())
	}
}

// shell is an interactive session: the database it runs batches on, the
// knobs that database was opened with, the debug listener, and how the next
// batch runs. The debug listener serves whichever database the shell is on.
type shell struct {
	// db is the current database: \set swaps it, and the debug listener's
	// goroutines read it.
	db          atomic.Pointer[csedb.DB]
	knobs       *knobs
	debug       *http.Server // nil when the debug knob is ""
	maxRows     int
	next        string // "", "explain", "analyze" or "describe"
	out, errOut io.Writer
}

// ServeHTTP serves a debug request from the shell's current database.
func (sh *shell) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.db.Load().DebugHandler().ServeHTTP(w, r)
}

// listenDebug moves the debug listener to the debug knob's address and
// records the address it bound there, or closes the listener when the knob
// is "". It binds before it closes, so a failed bind changes nothing.
func (sh *shell) listenDebug() error {
	var next *http.Server
	if sh.knobs.debug != "" {
		srv, bound, err := listen(sh.knobs.debug, sh)
		if err != nil {
			return err
		}
		next, sh.knobs.debug = srv, bound
		fmt.Fprintf(sh.errOut, "debug server listening on http://%s — try /metrics, /flightrecorder, /trace/last\n", bound)
	}
	if sh.debug != nil {
		sh.debug.Close() //nolint:errcheck // closing a listener
	}
	sh.debug = next
	return nil
}

func repl(sh *shell) {
	fmt.Println("csedb shell — separate statements with ';', run the buffered batch with 'go', quit with \\q")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("csedb> ")
		} else {
			fmt.Print("   ... ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case buf.Len() == 0 && strings.HasPrefix(trimmed, "\\"):
			if _, quit := sh.handleMeta(trimmed); quit {
				return
			}
		case strings.EqualFold(trimmed, "go"):
			if sql := strings.TrimSpace(buf.String()); sql != "" {
				sh.run(sql)
			}
			buf.Reset()
		default:
			buf.WriteString(line)
			buf.WriteByte('\n')
		}
		prompt()
	}
}

// run executes one buffered batch the way the last \explain or \describe
// asked, or plainly.
func (sh *shell) run(sql string) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(sh.errOut, "internal error: %v\n", r)
		}
	}()
	mode := sh.next
	sh.next = ""
	db := sh.db.Load()
	var err error
	switch mode {
	case "analyze":
		var text string
		if text, err = db.ExplainAnalyze(sql); err == nil {
			fmt.Fprint(sh.out, text)
		}
	case "explain":
		var plan string
		if plan, err = db.Explain(sql); err == nil {
			fmt.Fprintln(sh.out, plan)
		}
	case "describe":
		var out *core.Output
		if out, _, err = db.Optimize(sql); err == nil {
			// The memo is reachable through the optimizer.
			fmt.Fprintln(sh.out, out.Describe(out.Optimizer.M))
		}
	default:
		var res *csedb.BatchResult
		if res, err = db.Run(sql); err == nil {
			printResult(res, sh.maxRows)
		}
	}
	if err != nil {
		fmt.Fprintf(sh.errOut, "error: %v\n", err)
	}
}

// handleMeta processes a meta-command. It returns the database the shell
// runs on from now on, and whether to quit.
func (sh *shell) handleMeta(cmd string) (*csedb.DB, bool) {
	fields := strings.Fields(cmd)
	cmd = strings.Join(fields, " ")
	db := sh.db.Load()
	switch {
	case fields[0] == "\\q" || fields[0] == "\\quit":
		return db, true
	case cmd == "\\explain analyze":
		sh.next = "analyze"
		fmt.Fprintln(sh.out, "next batch will be executed and shown with per-operator actuals")
	case cmd == "\\explain":
		sh.next = "explain"
		fmt.Fprintln(sh.out, "next batch will be explained, not executed")
	case cmd == "\\describe":
		sh.next = "describe"
		fmt.Fprintln(sh.out, "next batch's CSE decisions will be described, not executed")
	case cmd == "\\set":
		sh.knobs.fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(sh.out, "%-14s %s\n", f.Name, f.Value) })
	case fields[0] == "\\set" && len(fields) == 3:
		if err := sh.set(fields[1], fields[2]); err != nil {
			fmt.Fprintf(sh.errOut, "error: %v\n", err)
			break
		}
		fmt.Fprintf(sh.out, "%s set to %q on a new database over the same data (metrics, flight recorder and result cache start fresh)\n",
			fields[1], sh.knobs.fs.Lookup(fields[1]).Value.String())
	case cmd == "\\metrics":
		fmt.Fprint(sh.out, db.Metrics().Dump())
	case cmd == "\\cache":
		if rc := db.ResultCache(); rc != nil {
			fmt.Fprintf(sh.out, "result cache: %s\n", rc.Stats())
		} else {
			fmt.Fprintln(sh.out, "result cache off")
		}
	case cmd == "\\cache clear":
		if rc := db.ResultCache(); rc != nil {
			rc.Clear()
		}
		fmt.Fprintln(sh.out, "result cache cleared")
	case cmd == "\\tables":
		for _, name := range db.Catalog().Names() {
			fmt.Fprintln(sh.out, name)
		}
	default:
		fmt.Fprintf(sh.errOut, "unknown meta-command %q (\\explain [analyze], \\describe, \\set [name value], \\metrics, \\cache [clear], \\tables, \\q)\n", cmd)
	}
	return sh.db.Load(), false
}

// set changes one knob through its flag's Set and reopens the database over
// the same catalog and store; the debug listener serves the new database
// from then on. Only a changed debug address moves the listener. An unknown
// name, an invalid value or a debug address that cannot be bound leaves the
// shell on its current database.
func (sh *shell) set(name, value string) error {
	f := sh.knobs.fs.Lookup(name)
	if f == nil {
		return fmt.Errorf("unknown option %q; \\set lists them", name)
	}
	if v, err := strconv.Unquote(value); err == nil {
		value = v // \set debug "" turns the debug server off
	}
	prev := f.Value.String()
	if err := f.Value.Set(value); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	if name == "debug" && value != prev {
		if err := sh.listenDebug(); err != nil {
			f.Value.Set(prev) //nolint:errcheck // prev was accepted before
			return err
		}
	}
	old := sh.db.Load()
	sh.db.Store(csedb.OpenOn(old.Catalog(), old.Store(), sh.knobs.options()))
	return nil
}
