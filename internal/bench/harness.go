package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/csedb"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/sqltypes"
)

// Mode selects the optimizer configuration, matching the three columns of
// the paper's tables.
type Mode int

// Benchmark modes.
const (
	NoCSE Mode = iota
	WithCSE
	NoHeuristics
)

// String names the mode like the paper's column headers.
func (m Mode) String() string {
	switch m {
	case NoCSE:
		return "No CSE"
	case WithCSE:
		return "Using CSEs"
	case NoHeuristics:
		return "Using CSEs (no heuristics)"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Settings returns the core settings for the mode.
func (m Mode) Settings() core.Settings {
	s := core.DefaultSettings()
	switch m {
	case NoCSE:
		s.EnableCSE = false
	case NoHeuristics:
		s.Heuristics = false
	}
	return s
}

// Config fixes the dataset for a harness run.
type Config struct {
	ScaleFactor float64
	Seed        int64

	// Reps is how many times each batch is re-optimized and re-executed;
	// the minimum time is reported (standard practice for noisy wall-clock
	// measurements). 0 means 3.
	Reps int

	// Parallelism is the executor worker-pool setting for the measured
	// runs: 0 = parallel with GOMAXPROCS workers (the default), 1 =
	// sequential, n > 1 = n workers. The harness always takes an additional
	// sequential measurement for the speedup comparison.
	Parallelism int

	// Search forces the MQO subset-search strategy for every measured run;
	// empty means core.SearchAuto.
	Search core.SearchStrategy
}

func (c Config) reps() int {
	if c.Reps <= 0 {
		return 3
	}
	return c.Reps
}

// Measurement is one (mode, batch) run: the quantities the paper's tables
// report, plus the parallel-executor comparison.
type Measurement struct {
	Mode       Mode
	Candidates int
	CSEOpts    int
	OptTime    time.Duration
	EstCost    float64
	ExecTime   time.Duration
	UsedCSEs   []int
	Labels     []string

	// Results is the first run's statement results in difftest.Normalize
	// form, which VerifyAgainst and the sequential re-runs compare.
	Results string

	// ExecTimeSeq is the batch execution time on the sequential executor
	// (minimum over reps), measured on the same data; ExecTime is the
	// configured (by default parallel) executor.
	ExecTimeSeq time.Duration

	// Workers and Utilization describe the first measured run: pool size
	// and the busy-time fraction of available worker time.
	Workers     int
	Utilization float64
}

// NewDB opens a database loaded with the configured TPC-H data under the
// given mode. The cross-batch result cache is disabled: the paper's tables
// report cold-run execution times, and min-over-reps measurement would
// silently turn into cache-hit measurement otherwise.
func NewDB(cfg Config, mode Mode) (*csedb.DB, error) {
	s := mode.Settings()
	s.SearchStrategy = cfg.Search
	db := csedb.Open(csedb.Options{CSE: &s, ExecParallelism: cfg.Parallelism, CacheBudget: -1})
	if err := db.LoadTPCH(cfg.ScaleFactor, cfg.Seed); err != nil {
		return nil, err
	}
	return db, nil
}

// RunBatch measures one batch under one mode on a fresh database,
// re-running it cfg.Reps times and reporting the minimum optimization and
// execution times. It then re-executes the batch on the sequential executor
// (same reps) for the parallel-vs-sequential comparison; every sequential
// run must return the measured run's results.
func RunBatch(cfg Config, mode Mode, sql string) (*Measurement, error) {
	db, err := NewDB(cfg, mode)
	if err != nil {
		return nil, err
	}
	var m *Measurement
	for rep := 0; rep < cfg.reps(); rep++ {
		res, err := db.Run(sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode, err)
		}
		if m != nil {
			m.OptTime = min(m.OptTime, res.OptimizeTime)
			m.ExecTime = min(m.ExecTime, res.ExecTime)
			continue
		}
		m = &Measurement{
			Mode:       mode,
			Candidates: res.Stats.Candidates,
			CSEOpts:    res.Stats.CSEOptimizations,
			OptTime:    res.OptimizeTime,
			EstCost:    res.EstimatedCost,
			ExecTime:   res.ExecTime,
			UsedCSEs:   res.Stats.UsedCSEs,
			Labels:     res.Stats.CandidateLabels,
			Results:    difftest.Normalize(res.Statements),
		}
		if es := res.ExecStats; es != nil {
			m.Workers = es.Workers
			m.Utilization = es.Utilization()
		}
	}

	s := db.Settings()
	seq := csedb.OpenOn(db.Catalog(), db.Store(), csedb.Options{CSE: &s, ExecParallelism: 1, CacheBudget: -1})
	for rep := 0; rep < cfg.reps(); rep++ {
		res, err := seq.Run(sql)
		if err != nil {
			return nil, fmt.Errorf("%s (sequential): %w", mode, err)
		}
		if d := difftest.Diff(m.Results, difftest.Normalize(res.Statements)); d != "" {
			return nil, fmt.Errorf("%s: sequential results differ from parallel at %s", mode, d)
		}
		if rep == 0 || res.ExecTime < m.ExecTimeSeq {
			m.ExecTimeSeq = res.ExecTime
		}
	}
	return m, nil
}

// VerifyAgainst checks that two measurements of one batch returned the same
// results: byte-identical normalized text, except float cells, which may
// differ in their last bits (difftest.Diff).
func VerifyAgainst(a, b *Measurement) error {
	if d := difftest.Diff(a.Results, b.Results); d != "" {
		return fmt.Errorf("%s and %s results differ at %s", a.Mode, b.Mode, d)
	}
	return nil
}

// TableRow is one experiment table, paper-style: three mode columns.
type TableRow struct {
	Title string
	Runs  [3]*Measurement
}

// RunTable measures a batch under all three modes and verifies result
// agreement.
func RunTable(cfg Config, title, sql string) (*TableRow, error) {
	tr := &TableRow{Title: title}
	for _, mode := range []Mode{NoCSE, WithCSE, NoHeuristics} {
		m, err := RunBatch(cfg, mode, sql)
		if err != nil {
			return nil, err
		}
		tr.Runs[mode] = m
	}
	if err := VerifyAgainst(tr.Runs[NoCSE], tr.Runs[WithCSE]); err != nil {
		return nil, fmt.Errorf("%s: CSE plan changed results: %w", title, err)
	}
	if err := VerifyAgainst(tr.Runs[NoCSE], tr.Runs[NoHeuristics]); err != nil {
		return nil, fmt.Errorf("%s: no-heuristics plan changed results: %w", title, err)
	}
	return tr, nil
}

// Format renders the table in the paper's layout.
func (tr *TableRow) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", tr.Title)
	w := func(label string, vals [3]string) {
		fmt.Fprintf(&sb, "  %-26s | %12s | %12s | %12s\n", label, vals[0], vals[1], vals[2])
	}
	w("", [3]string{"No CSE", "Using CSEs", "CSE (no heur)"})
	w("# of CSEs [CSE Opts]", [3]string{
		"N/A",
		fmt.Sprintf("%d [%d]", tr.Runs[1].Candidates, tr.Runs[1].CSEOpts),
		fmt.Sprintf("%d [%d]", tr.Runs[2].Candidates, tr.Runs[2].CSEOpts),
	})
	w("Optimization time (secs)", [3]string{
		fmt.Sprintf("%.4f", tr.Runs[0].OptTime.Seconds()),
		fmt.Sprintf("%.4f", tr.Runs[1].OptTime.Seconds()),
		fmt.Sprintf("%.4f", tr.Runs[2].OptTime.Seconds()),
	})
	w("Estimated cost", [3]string{
		fmt.Sprintf("%.2f", tr.Runs[0].EstCost),
		fmt.Sprintf("%.2f", tr.Runs[1].EstCost),
		fmt.Sprintf("%.2f", tr.Runs[2].EstCost),
	})
	w("Execution time (secs)", [3]string{
		fmt.Sprintf("%.4f", tr.Runs[0].ExecTime.Seconds()),
		fmt.Sprintf("%.4f", tr.Runs[1].ExecTime.Seconds()),
		fmt.Sprintf("%.4f", tr.Runs[2].ExecTime.Seconds()),
	})
	w("Exec time, sequential", [3]string{
		fmt.Sprintf("%.4f", tr.Runs[0].ExecTimeSeq.Seconds()),
		fmt.Sprintf("%.4f", tr.Runs[1].ExecTimeSeq.Seconds()),
		fmt.Sprintf("%.4f", tr.Runs[2].ExecTimeSeq.Seconds()),
	})
	if sp := speedup(tr.Runs[0].ExecTime, tr.Runs[1].ExecTime); sp > 0 {
		fmt.Fprintf(&sb, "  execution speedup with CSEs: %.2fx\n", sp)
	}
	if m := tr.Runs[1]; m.Workers > 1 {
		if sp := speedup(m.ExecTimeSeq, m.ExecTime); sp > 0 {
			fmt.Fprintf(&sb, "  parallel exec speedup vs sequential: %.2fx (%d workers, %.0f%% utilized)\n",
				sp, m.Workers, 100*m.Utilization)
		}
	}
	return sb.String()
}

func speedup(base, with time.Duration) float64 {
	if with <= 0 {
		return 0
	}
	return base.Seconds() / with.Seconds()
}

// Figure8Point is one batch size of the scale-up experiment.
type Figure8Point struct {
	Queries        int
	CostNoCSE      float64
	CostCSE        float64
	OptNoCSE       time.Duration
	OptCSE         time.Duration
	OptNoPruning   time.Duration
	CandsCSE       int
	CandsNoPruning int
}

// RunFigure8 sweeps batch sizes 2..maxN.
func RunFigure8(cfg Config, maxN int) ([]Figure8Point, error) {
	var out []Figure8Point
	for n := 2; n <= maxN; n++ {
		sql := Figure8SQL(n)
		no, err := RunBatch(cfg, NoCSE, sql)
		if err != nil {
			return nil, err
		}
		with, err := RunBatch(cfg, WithCSE, sql)
		if err != nil {
			return nil, err
		}
		noH, err := RunBatch(cfg, NoHeuristics, sql)
		if err != nil {
			return nil, err
		}
		if err := VerifyAgainst(no, with); err != nil {
			return nil, fmt.Errorf("figure8 n=%d: %w", n, err)
		}
		out = append(out, Figure8Point{
			Queries:        n,
			CostNoCSE:      no.EstCost,
			CostCSE:        with.EstCost,
			OptNoCSE:       no.OptTime,
			OptCSE:         with.OptTime,
			OptNoPruning:   noH.OptTime,
			CandsCSE:       with.Candidates,
			CandsNoPruning: noH.Candidates,
		})
	}
	return out, nil
}

// FormatFigure8 renders the sweep as the two series of Figure 8.
func FormatFigure8(points []Figure8Point) string {
	var sb strings.Builder
	sb.WriteString("Figure 8: scale-up with number of queries in the batch\n")
	sb.WriteString("  queries | est cost (no CSE) | est cost (CSE) | opt time no CSE | opt time CSE | opt time no-prune | cands (CSE/no-prune)\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "  %7d | %17.2f | %14.2f | %15.4f | %12.4f | %17.4f | %d/%d\n",
			p.Queries, p.CostNoCSE, p.CostCSE,
			p.OptNoCSE.Seconds(), p.OptCSE.Seconds(), p.OptNoPruning.Seconds(),
			p.CandsCSE, p.CandsNoPruning)
	}
	return sb.String()
}

// MaintenanceMeasurement reports the §6.4 experiment.
type MaintenanceMeasurement struct {
	Mode       Mode
	Candidates int
	CSEOpts    int
	OptTime    time.Duration
	ExecTime   time.Duration
	EstCost    float64
	Views      int
}

// RunViewMaintenance creates the three Example 1 materialized views, then
// inserts a batch of new customers and measures joint maintenance.
func RunViewMaintenance(cfg Config, mode Mode, deltaRows int) (*MaintenanceMeasurement, error) {
	db, err := NewDB(cfg, mode)
	if err != nil {
		return nil, err
	}
	if _, err := db.Run(ViewDDL()); err != nil {
		return nil, err
	}
	rows := make([]csedb.Row, deltaRows)
	for i := range rows {
		rows[i] = csedb.Row{
			sqltypes.NewInt(int64(900000 + i)),
			sqltypes.NewString(fmt.Sprintf("Customer#%09d", 900000+i)),
			sqltypes.NewString("delta address"),
			sqltypes.NewInt(int64(i % 25)),
			sqltypes.NewString("11-111-111-1111"),
			sqltypes.NewFloat(float64(i)),
			sqltypes.NewString("BUILDING"),
			sqltypes.NewString("delta"),
		}
	}
	res, err := db.InsertWithViewMaintenance("customer", rows)
	if err != nil {
		return nil, err
	}
	return &MaintenanceMeasurement{
		Mode:       mode,
		Candidates: res.Stats.Candidates,
		CSEOpts:    res.Stats.CSEOptimizations,
		OptTime:    res.OptimizeTime,
		ExecTime:   res.ExecTime,
		EstCost:    res.EstimatedCost,
		Views:      len(res.ViewsMaintained),
	}, nil
}

// FormatMaintenance renders the §6.4 comparison.
func FormatMaintenance(no, with *MaintenanceMeasurement) string {
	var sb strings.Builder
	sb.WriteString("View maintenance (3 materialized views, customer delta)\n")
	fmt.Fprintf(&sb, "  %-26s | %12s | %12s\n", "", "No CSE", "Using CSEs")
	fmt.Fprintf(&sb, "  %-26s | %12s | %12s\n", "# of CSEs [CSE Opts]", "N/A",
		fmt.Sprintf("%d [%d]", with.Candidates, with.CSEOpts))
	fmt.Fprintf(&sb, "  %-26s | %12.4f | %12.4f\n", "Optimization time (secs)",
		no.OptTime.Seconds(), with.OptTime.Seconds())
	fmt.Fprintf(&sb, "  %-26s | %12.2f | %12.2f\n", "Estimated cost", no.EstCost, with.EstCost)
	fmt.Fprintf(&sb, "  %-26s | %12.4f | %12.4f\n", "Maintenance time (secs)",
		no.ExecTime.Seconds(), with.ExecTime.Seconds())
	if sp := speedup(no.ExecTime, with.ExecTime); sp > 0 {
		fmt.Fprintf(&sb, "  maintenance speedup with CSEs: %.2fx\n", sp)
	}
	return sb.String()
}

// OverheadMeasurement quantifies the no-sharing optimization overhead.
type OverheadMeasurement struct {
	OptNoCSE   time.Duration
	OptWithCSE time.Duration
	Candidates int
}

// RunOverhead measures optimizer time on a batch with no sharable
// subexpressions, with the CSE machinery off and on.
func RunOverhead(cfg Config) (*OverheadMeasurement, error) {
	sql := NoSharingSQL()
	no, err := RunBatch(cfg, NoCSE, sql)
	if err != nil {
		return nil, err
	}
	with, err := RunBatch(cfg, WithCSE, sql)
	if err != nil {
		return nil, err
	}
	return &OverheadMeasurement{
		OptNoCSE:   no.OptTime,
		OptWithCSE: with.OptTime,
		Candidates: with.Candidates,
	}, nil
}

// CSVFigure8 renders the sweep as CSV for plotting.
func CSVFigure8(points []Figure8Point) string {
	var sb strings.Builder
	sb.WriteString("queries,est_cost_no_cse,est_cost_cse,opt_s_no_cse,opt_s_cse,opt_s_no_pruning,cands_cse,cands_no_pruning\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "%d,%.2f,%.2f,%.6f,%.6f,%.6f,%d,%d\n",
			p.Queries, p.CostNoCSE, p.CostCSE,
			p.OptNoCSE.Seconds(), p.OptCSE.Seconds(), p.OptNoPruning.Seconds(),
			p.CandsCSE, p.CandsNoPruning)
	}
	return sb.String()
}

// CSVTable renders a table row comparison as CSV.
func (tr *TableRow) CSV() string {
	var sb strings.Builder
	sb.WriteString("mode,candidates,cse_opts,opt_s,est_cost,exec_s,exec_seq_s,workers,utilization\n")
	for _, m := range tr.Runs {
		fmt.Fprintf(&sb, "%q,%d,%d,%.6f,%.2f,%.6f,%.6f,%d,%.3f\n",
			m.Mode.String(), m.Candidates, m.CSEOpts,
			m.OptTime.Seconds(), m.EstCost, m.ExecTime.Seconds(),
			m.ExecTimeSeq.Seconds(), m.Workers, m.Utilization)
	}
	return sb.String()
}
