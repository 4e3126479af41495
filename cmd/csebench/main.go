// Command csebench regenerates the paper's evaluation tables and figures
// (§6) on the synthetic TPC-H database.
//
// Usage:
//
//	csebench -exp all -sf 0.05 -seed 42
//	csebench -exp table1 -v
//
// Experiments: table1 (query batch Q1–Q3), table2 (stacked CSEs, Q1–Q4),
// table3 (nested query), table4 (complex 8-table joins), figure8 (scale-up
// sweep), viewmaint (§6.4), overhead (no-sharing optimizer overhead),
// crossover (lattice-vs-greedy MQO search over batch sizes 4→N).
//
// End-to-end speed is measured by the benchmark program (go run ./benchmark),
// not here; the optimizer ablations are the root package's
// BenchmarkAblation* benchmarks.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment: table1|table2|table3|table4|figure8|viewmaint|overhead|crossover|all")
		sf          = flag.Float64("sf", 0.05, "TPC-H scale factor (1.0 = paper's 1GB)")
		seed        = flag.Int64("seed", 42, "data generation seed")
		reps        = flag.Int("reps", 0, "measurement repetitions per point (0 = default 3); 1 speeds up smoke runs")
		maxN        = flag.Int("figure8-max", 10, "largest batch size for figure8")
		crossMax    = flag.Int("crossover-max", 64, "largest batch size for the lattice-vs-greedy crossover sweep")
		search      = flag.String("search", "auto", "MQO subset-search strategy for table experiments: auto|lattice|greedy")
		deltaN      = flag.Int("delta-rows", 200, "delta rows for view maintenance")
		verbose     = flag.Bool("v", false, "print candidate CSE details")
		format      = flag.String("format", "text", "output format: text|csv")
		parallelism = flag.Int("parallelism", 0, "executor worker pool: 0=GOMAXPROCS (parallel, default), 1=sequential, n>1=n workers")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		memProfile  = flag.String("memprofile", "", "write an allocation profile (taken at exit) to this file")
	)
	flag.Parse()

	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "csebench: unknown -format %q (want text or csv)\n", *format)
		os.Exit(2)
	}
	strategy, err := core.ParseSearchStrategy(*search)
	if err != nil {
		fmt.Fprintf(os.Stderr, "csebench: -search: %v\n", err)
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "csebench: %v\n", err)
		os.Exit(2)
	}

	cfg := bench.Config{ScaleFactor: *sf, Seed: *seed, Reps: *reps, Parallelism: *parallelism, Search: strategy}
	asCSV := *format == "csv"
	fmt.Printf("csebench: TPC-H scale factor %g, seed %d\n\n", *sf, *seed)

	run := func(name string) bool {
		return *exp == "all" || *exp == name
	}
	failed := false
	report := func(err error) {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		failed = true
	}
	table := func(name, title, sql string) {
		if !run(name) {
			return
		}
		tr, err := bench.RunTable(cfg, title, sql)
		switch {
		case err != nil:
			report(err)
		case asCSV:
			fmt.Printf("# %s\n%s", name, tr.CSV())
		default:
			fmt.Println(tr.Format())
			printCandidates(*verbose, tr)
		}
	}

	table("table1", "Table 1: Query batch (Q1, Q2, Q3) of Example 1", bench.Table1SQL())
	table("table2", "Table 2: Query batch (Q1, Q2, Q3, Q4) — stacked CSEs (§6.2)", bench.Table2SQL())
	table("table3", "Table 3: Nested query (§6.3, TPC-H Q11-like)", bench.Table3SQL())
	table("table4", "Table 4: Complex joins — all 8 TPC-H tables (§6.5)", bench.Table4SQL())
	if run("figure8") {
		points, err := bench.RunFigure8(cfg, *maxN)
		switch {
		case err != nil:
			report(err)
		case asCSV:
			fmt.Print(bench.CSVFigure8(points))
		default:
			fmt.Println(bench.FormatFigure8(points))
		}
	}
	if run("viewmaint") {
		no, err := bench.RunViewMaintenance(cfg, bench.NoCSE, *deltaN)
		if err != nil {
			report(err)
		} else if with, err := bench.RunViewMaintenance(cfg, bench.WithCSE, *deltaN); err != nil {
			report(err)
		} else {
			fmt.Println(bench.FormatMaintenance(no, with))
		}
	}
	if run("crossover") {
		points, err := bench.RunCrossover(cfg, *crossMax)
		switch {
		case err != nil:
			report(err)
		case asCSV:
			fmt.Print(bench.CSVCrossover(points))
		default:
			fmt.Println(bench.FormatCrossover(points))
		}
	}
	if run("overhead") {
		if ov, err := bench.RunOverhead(cfg); err != nil {
			report(err)
		} else {
			fmt.Printf("Overhead on a batch with no sharable subexpressions:\n")
			fmt.Printf("  optimization time, CSE machinery off: %.4fs\n", ov.OptNoCSE.Seconds())
			fmt.Printf("  optimization time, CSE machinery on:  %.4fs\n", ov.OptWithCSE.Seconds())
			fmt.Printf("  candidates generated: %d\n\n", ov.Candidates)
		}
	}
	// Stop profiles explicitly: os.Exit skips deferred calls.
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "csebench: %v\n", err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling and arranges a heap profile at exit;
// the returned stop function must run before the process exits.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func printCandidates(verbose bool, tr *bench.TableRow) {
	if !verbose {
		return
	}
	for _, m := range tr.Runs[1:] {
		fmt.Printf("  [%s] candidates:\n", m.Mode)
		for i, l := range m.Labels {
			used := ""
			for _, u := range m.UsedCSEs {
				if u == i {
					used = "  (used in final plan)"
				}
			}
			fmt.Printf("    E%d: %s%s\n", i+1, strings.TrimSpace(l), used)
		}
	}
	fmt.Println()
}
