// Command benchmark is the repository's one benchmark: four workloads, the
// same end-to-end metrics on each, and a per-layer trace taken from outside
// the engine. README.md in this directory says what every name means.
//
//	go run ./benchmark                       every workload, timing run then traced run
//	go run ./benchmark -selfcheck            the timing set twice; fails if the two disagree
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's form)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// metricSpec and benchSpec mirror BENCHMARK.json, which is the one place
// metric names, units, directions and regression bounds are written down.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// workload is what the four workloads have in common. setup does everything
// from the seed to the first timed operation; measure is the timing run
// (tracing off); trace is the traced run and returns the per-layer metrics
// and the spans.
type workload interface {
	setup(ctx context.Context, seed int64) error
	measure(ctx context.Context, d time.Duration) (*section, error)
	trace(ctx context.Context, d time.Duration) (*section, map[string]float64, *tracer, error)
	manifest() manifest
	close()
}

const (
	outDir = "benchmark/out"
	// wallCap bounds one run (set-ups, measurement and verification): past
	// it the run is cancelled and what did not finish counts as failed. A
	// non-default seed may take up to twice the default seed's time, which
	// this still leaves room for.
	wallCap = 170 * time.Second
	// setups is how many times the timing run sets the workload up; setup_s
	// is their median.
	setups = 3
)

// harness carries what every run of this invocation shares.
type harness struct {
	spec      *benchSpec
	reap      *reaper
	serverBin string
}

func (b *harness) newWorkload(ctx context.Context, name string) (workload, error) {
	switch name {
	case "paper.tables":
		return newPaperTables(), nil
	case "search.large":
		return newSearchLarge(), nil
	case "cache.churn":
		return newCacheChurn(), nil
	case "serve.http":
		if b.serverBin == "" {
			bin, err := buildServer(ctx)
			if err != nil {
				return nil, err
			}
			b.serverBin = bin
		}
		return newServeHTTP(b.reap, b.serverBin), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(b.spec.workloadNames(), ", "))
}

// runOne makes one run of one workload: trace 0 is the timing run and
// yields the end-to-end metrics, trace 1 the traced run and the per-layer
// metrics.
func (b *harness) runOne(ctx context.Context, name string, seed int64, seconds, trace int) (*run, error) {
	ctx, cancel := context.WithTimeout(ctx, wallCap)
	defer cancel()
	// The optimizer takes no context, so a call that hangs inside it cannot
	// be cancelled: past the cap plus a grace period the process gives up.
	watchdog := time.AfterFunc(wallCap+8*time.Second, func() {
		b.reap.stopAll()
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its wall cap of %s\n", name, wallCap)
		os.Exit(3)
	})
	defer watchdog.Stop()

	n := setups
	if trace == 1 {
		n = 1
	}
	var w workload
	var setupS []float64
	for i := 0; i < n; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = b.newWorkload(ctx, name); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setup(ctx, seed); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()

	r := &run{Workload: name, Trace: trace, Seconds: seconds, Info: map[string]float64{}}
	r.Metrics = map[string]metric{}
	d := time.Duration(seconds) * time.Second
	var sec *section
	if trace == 0 {
		var err error
		if sec, err = w.measure(ctx, d); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		lat := sec.lat.sorted()
		vals := map[string]float64{
			"lat_p50_ms":  percentile(lat, 50),
			"lat_p95_ms":  percentile(lat, 95),
			"stmts_per_s": ratio(float64(sec.stmts), sec.busy.Seconds()),
			"setup_s":     median(setupS),
		}
		for _, ms := range b.spec.EndToEnd {
			r.Metrics[ms.Name] = metric{Value: vals[ms.Name], Unit: ms.Unit}
		}
		if len(lat) > 0 {
			r.Info["lat_p99_ms"] = percentile(lat, 99)
			r.Info["lat_max_ms"] = lat[len(lat)-1]
			hp := highestSupported(len(lat))
			r.Info["highest_supported_percentile"] = hp
			r.Info["lat_highest_supported_ms"] = percentile(lat, hp)
		}
	} else {
		var layers map[string]float64
		var tr *tracer
		var err error
		if sec, layers, tr, err = w.trace(ctx, d); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, ms := range b.spec.PerLayer {
			r.Metrics[ms.Name] = metric{Value: layers[ms.Name], Unit: ms.Unit}
		}
		path, err := writeTrace(outDir, traceFile{Workload: name, Seed: seed, Ops: int(layers["traced_ops"]), Spans: tr.log.spans})
		if err != nil {
			return nil, err
		}
		fmt.Printf("# %s: %d spans written to %s\n", name, len(tr.log.spans), path)
	}
	if ctx.Err() != nil {
		// The cap cut the run short: the operation in flight, at the least,
		// never completed.
		sec.tally.Attempted++
		sec.tally.TimedOut++
		fmt.Printf("# %s: wall cap of %s reached, run cut short\n", name, wallCap)
	}
	r.Tally = sec.tally
	r.Attempted = sec.tally.Attempted
	r.Failed = sec.tally.failed()
	r.Correct = r.Failed == 0 && len(sec.lat.ms) > 0
	r.Samples = len(sec.lat.ms)
	r.Info["fail_ratio"] = sec.tally.failRatio()
	r.Info["stmts"] = float64(sec.stmts)
	r.Info["measured_s"] = sec.busy.Seconds()
	r.Info["writes"] = float64(sec.writes)
	r.Manifest = w.manifest()
	if len(sec.strategies) > 0 {
		r.Manifest.Strategies = sec.strategies
	}
	return r, nil
}

func (b *harness) bound(name string) float64 {
	for _, ms := range b.spec.EndToEnd {
		if ms.Name == name {
			return ms.Bound
		}
	}
	return 0
}

func (b *harness) printRun(r *run) {
	specs := b.spec.EndToEnd
	if r.Trace == 1 {
		specs = b.spec.PerLayer
	}
	kind := "timing run"
	if r.Trace == 1 {
		kind = "traced run"
	}
	fmt.Printf("\n%s — %s, seed %d, %d operations attempted, %d failed (fail_ratio %.4g), %d clients\n",
		r.Workload, kind, r.Manifest.Seed, r.Attempted, r.Failed, r.Info["fail_ratio"], r.Manifest.Clients)
	for _, ms := range specs {
		m := r.Metrics[ms.Name]
		note := ""
		if strings.HasPrefix(ms.Name, "lat_") {
			note = fmt.Sprintf("n=%d", r.Samples)
		}
		fmt.Printf("  %-22s %14.4f %-6s %s\n", ms.Name, m.Value, m.Unit, note)
	}
	if r.Trace == 0 && r.Samples > 0 {
		fmt.Printf("  (p%g is the highest percentile %d samples support: %.4f ms; p99 %.4f ms and max %.4f ms are for information)\n",
			r.Info["highest_supported_percentile"], r.Samples, r.Info["lat_highest_supported_ms"], r.Info["lat_p99_ms"], r.Info["lat_max_ms"])
	}
	if len(r.Manifest.Strategies) > 0 {
		fmt.Printf("  search strategies resolved: %v\n", r.Manifest.Strategies)
	}
}

// runSet runs the named workloads once each in the given trace modes.
func (b *harness) runSet(ctx context.Context, names []string, seed int64, seconds int, traces []int) ([]run, bool) {
	var runs []run
	ok := true
	for _, name := range names {
		for _, trace := range traces {
			r, err := b.runOne(ctx, name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				ok = false
				continue
			}
			b.printRun(r)
			ok = ok && r.Correct
			runs = append(runs, *r)
		}
	}
	return runs, ok
}

func writeResultFile(path string, runs []run) error {
	data, err := json.MarshalIndent(resultFile{Schema: 1, Env: currentEnvironment(), Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Int64("seed", 42, "the only input of the workload generators")
		seconds      = flag.Int("seconds", 0, "seconds each run measures (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", -1, "0 = timing run, 1 = traced run, -1 = one after the other")
		runs         = flag.Int("runs", 1, "repeat the timing set this many times (for -out files that -compare can take a spread from)")
		out          = flag.String("out", filepath.Join(outDir, "result.json"), "where to write the result file")
		selfcheck    = flag.Bool("selfcheck", false, "run the timing set twice and fail if any end-to-end metric differs by more than its bound")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare old.json new.json")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}

	b := &harness{spec: spec, reap: &reaper{}}
	// The server subprocess is stopped on every way out: return, error,
	// panic (re-raised once the child is gone) and signal.
	defer func() {
		b.reap.stopAll()
		if p := recover(); p != nil {
			panic(p)
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// A signal cancels ctx and the runs wind down at their next check;
		// a call that cannot be cancelled gets this long before the process
		// reaps its child and leaves anyway.
		<-ctx.Done()
		time.Sleep(10 * time.Second)
		b.reap.stopAll()
		os.Exit(130)
	}()

	names := spec.workloadNames()
	if *workloadName != "" {
		names = []string{*workloadName}
	}

	// The driver's form: one workload, one trace mode, one JSON line last.
	if *workloadName != "" && *trace >= 0 {
		fmt.Printf("# %+v\n", currentEnvironment())
		r, err := b.runOne(ctx, *workloadName, *seed, *seconds, *trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		b.printRun(r)
		m, _ := json.Marshal(r.Manifest) // plain data
		fmt.Printf("# manifest %s\n", m)
		line, err := json.Marshal(r.result)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		if !r.Correct {
			return 1
		}
		return 0
	}

	traces := []int{0, 1}
	if *trace >= 0 {
		traces = []int{*trace}
	}
	if *selfcheck {
		traces = []int{0}
		*runs = 2
	}
	fmt.Printf("# %+v, %d s per run, seed %d\n", currentEnvironment(), *seconds, *seed)
	var all []run
	ok := true
	for i := 0; i < *runs && ctx.Err() == nil; i++ {
		// Repeats are for the spread of the end-to-end metrics; one traced
		// run, with the last set, is enough.
		modes := traces
		if i < *runs-1 && len(traces) > 1 {
			modes = []int{0}
		}
		rs, good := b.runSet(ctx, names, *seed, *seconds, modes)
		all = append(all, rs...)
		ok = ok && good
	}
	if err := writeResultFile(*out, all); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("\nresults written to %s\n", *out)
	if *selfcheck && !b.selfcheck(os.Stdout, all) {
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// selfcheck compares the two timing sets of one invocation: same code, same
// seed, so any end-to-end metric that moved by more than its bound says the
// benchmark, not the engine, is unsteady.
func (b *harness) selfcheck(w *os.File, runs []run) bool {
	byKey := map[string][]float64{}
	for _, r := range runs {
		for name, m := range r.Metrics {
			k := r.Workload + "\t" + name
			byKey[k] = append(byKey[k], m.Value)
		}
	}
	keys := sortedKeys(byKey)
	ok := true
	fmt.Fprintf(w, "\nselfcheck: two timing sets of the same code\n")
	for _, k := range keys {
		v := byKey[k]
		if len(v) != 2 {
			fmt.Fprintf(w, "  %-40s missing a run\n", strings.ReplaceAll(k, "\t", " "))
			ok = false
			continue
		}
		name := k[strings.IndexByte(k, '\t')+1:]
		diff := ratio(v[1]-v[0], v[0])
		verdict := "ok"
		if diff > b.bound(name) || -diff > b.bound(name) {
			verdict = "UNSTEADY"
			ok = false
		}
		fmt.Fprintf(w, "  %-40s %12.4f then %12.4f  %+6.2f%% (bound %.0f%%)  %s\n",
			strings.ReplaceAll(k, "\t", " "), v[0], v[1], 100*diff, 100*b.bound(name), verdict)
	}
	return ok
}
