package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/csedb"
	"repro/internal/core"
	"repro/internal/obs"
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

	// Tracing records the optimizer decision trace on every measured run
	// (Measurement.Trace). Off by default so timing measurements stay free
	// of trace overhead.
	Tracing bool

	// Search forces the MQO subset-search strategy for every measured run;
	// empty means core.SearchAuto.
	Search core.SearchStrategy
}

// DefaultConfig matches the benchmark defaults.
var DefaultConfig = Config{ScaleFactor: 0.05, Seed: 42}

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
	RowCounts  []int

	// ExecTimeSeq is the batch execution time on the sequential executor
	// (minimum over reps), measured on the same database; ExecTime is the
	// configured (by default parallel) executor.
	ExecTimeSeq time.Duration

	// Workers and Utilization describe the measured parallel run: pool size
	// and the busy-time fraction of available worker time.
	Workers     int
	Utilization float64

	// BusyTime is the summed spool and statement work time across workers
	// of the first measured run; FallbackReason is non-empty when that run
	// fell back to the sequential executor.
	BusyTime       time.Duration
	FallbackReason string

	// WallTime is the minimum end-to-end wall time of one rep
	// (parse+optimize+execute), measured by the harness itself on the
	// monotonic clock rather than summed from reported phases.
	WallTime time.Duration

	// Metrics is the database's metrics registry snapshot after the
	// measured reps (sequential-comparison reps included).
	Metrics map[string]float64

	// Trace is the first run's optimizer decision trace when cfg.Tracing is
	// on; nil otherwise.
	Trace *obs.Trace
}

// stopwatch measures per-phase elapsed time. time.Now values carry Go's
// monotonic clock reading and subtracting them uses it, so phase durations
// are immune to wall-clock steps (NTP adjustments, suspend); the stopwatch
// only ever stores and subtracts the original readings — it never
// serializes them, which would strip the monotonic part.
type stopwatch struct{ last time.Time }

func newStopwatch() *stopwatch { return &stopwatch{last: time.Now()} }

// Lap returns the monotonic elapsed time since the previous lap (or since
// construction) and starts the next phase.
func (s *stopwatch) Lap() time.Duration {
	now := time.Now()
	d := now.Sub(s.last)
	s.last = now
	return d
}

// NewDB opens a database loaded with the configured TPC-H data under the
// given mode. The cross-batch result cache is disabled: the paper's tables
// report cold-run execution times, and min-over-reps measurement would
// silently turn into cache-hit measurement otherwise. The repeated-batch
// scenario (RunRepeated) measures the cache deliberately.
func NewDB(cfg Config, mode Mode) (*csedb.DB, error) {
	s := mode.Settings()
	s.SearchStrategy = cfg.Search
	db := csedb.Open(csedb.Options{CSE: &s, ExecParallelism: cfg.Parallelism, Tracing: cfg.Tracing, CacheBudget: -1})
	if err := db.LoadTPCH(cfg.ScaleFactor, cfg.Seed); err != nil {
		return nil, err
	}
	return db, nil
}

// RunBatch measures one batch under one mode on a fresh database,
// re-running it cfg.Reps times and reporting the minimum optimization and
// execution times per phase, measured on the monotonic clock. It then
// re-executes the batch on the sequential executor (same reps) to record
// the parallel-vs-sequential comparison, verifying both executors return
// identical per-statement row counts.
func RunBatch(cfg Config, mode Mode, sql string) (*Measurement, error) {
	db, err := NewDB(cfg, mode)
	if err != nil {
		return nil, err
	}
	var m *Measurement
	sw := newStopwatch()
	for rep := 0; rep < cfg.reps(); rep++ {
		sw.Lap()
		res, err := db.Run(sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode, err)
		}
		wall := sw.Lap()
		if m == nil {
			m = &Measurement{
				Mode:       mode,
				Candidates: res.Stats.Candidates,
				CSEOpts:    res.Stats.CSEOptimizations,
				OptTime:    res.OptimizeTime,
				EstCost:    res.EstimatedCost,
				ExecTime:   res.ExecTime,
				UsedCSEs:   res.Stats.UsedCSEs,
				Labels:     res.Stats.CandidateLabels,
			}
			for _, st := range res.Statements {
				m.RowCounts = append(m.RowCounts, len(st.Rows))
			}
		} else {
			if res.OptimizeTime < m.OptTime {
				m.OptTime = res.OptimizeTime
			}
			if res.ExecTime < m.ExecTime {
				m.ExecTime = res.ExecTime
			}
		}
		if m.WallTime == 0 || wall < m.WallTime {
			m.WallTime = wall
		}
		if es := res.ExecStats; es != nil && rep == 0 {
			m.Workers = es.Workers
			m.Utilization = es.Utilization()
			m.BusyTime = es.BusyTime
			m.FallbackReason = es.FallbackReason
		}
		if rep == 0 {
			m.Trace = res.Trace
		}
	}

	// Sequential comparison phase on the same database and plan settings.
	db.SetExecParallelism(1)
	defer db.SetExecParallelism(cfg.Parallelism)
	for rep := 0; rep < cfg.reps(); rep++ {
		res, err := db.Run(sql)
		if err != nil {
			return nil, fmt.Errorf("%s (sequential): %w", mode, err)
		}
		if len(res.Statements) != len(m.RowCounts) {
			return nil, fmt.Errorf("%s: sequential run returned %d statements, parallel %d",
				mode, len(res.Statements), len(m.RowCounts))
		}
		for i, st := range res.Statements {
			if len(st.Rows) != m.RowCounts[i] {
				return nil, fmt.Errorf("%s: statement %d returned %d rows sequentially, %d in parallel",
					mode, i+1, len(st.Rows), m.RowCounts[i])
			}
		}
		if m.ExecTimeSeq == 0 || res.ExecTime < m.ExecTimeSeq {
			m.ExecTimeSeq = res.ExecTime
		}
	}
	m.Metrics = db.Metrics().Snapshot()
	return m, nil
}

// VerifyAgainst cross-checks two measurements' result row counts; the
// harness uses it to assert CSE plans return the same result shapes.
func VerifyAgainst(a, b *Measurement) error {
	if len(a.RowCounts) != len(b.RowCounts) {
		return fmt.Errorf("statement counts differ: %d vs %d", len(a.RowCounts), len(b.RowCounts))
	}
	for i := range a.RowCounts {
		if a.RowCounts[i] != b.RowCounts[i] {
			return fmt.Errorf("statement %d row counts differ: %d (%s) vs %d (%s)",
				i+1, a.RowCounts[i], a.Mode, b.RowCounts[i], b.Mode)
		}
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

// RepeatedMeasurement reports the repeated-batch scenario: one database with
// the cross-batch result cache enabled runs the same batch several times.
// The first (cold) run materializes every spool; warm runs serve them from
// the cache, so WarmExec should beat ColdExec whenever the batch shares
// work at all.
type RepeatedMeasurement struct {
	Candidates int
	UsedCSEs   []int
	RowCounts  []int

	// ColdExec is the first run's execution time; WarmExec is the minimum
	// execution time over the warm reps.
	ColdExec time.Duration
	WarmExec time.Duration

	// SpoolsCached is how many spools the first warm run served from the
	// cache (out of SpoolsTotal executed spools).
	SpoolsCached int
	SpoolsTotal  int

	// Hits/Misses/Invalidations/CacheBytes snapshot the cache after the
	// scenario.
	Hits, Misses, Invalidations int64
	CacheBytes                  int64

	// Metrics is the database's metrics registry snapshot at the end.
	Metrics map[string]float64
}

// WarmSpeedup is ColdExec / WarmExec (> 1 means the cache paid off).
func (r *RepeatedMeasurement) WarmSpeedup() float64 { return speedup(r.ColdExec, r.WarmExec) }

// RunRepeated measures the repeated-batch scenario under the WithCSE mode:
// the batch runs once cold and cfg.Reps times warm on the same database with
// the result cache on, verifying warm runs return the same per-statement row
// counts as the cold run.
func RunRepeated(cfg Config, sql string) (*RepeatedMeasurement, error) {
	s := WithCSE.Settings()
	s.SearchStrategy = cfg.Search
	db := csedb.Open(csedb.Options{CSE: &s, ExecParallelism: cfg.Parallelism, Tracing: cfg.Tracing})
	if err := db.LoadTPCH(cfg.ScaleFactor, cfg.Seed); err != nil {
		return nil, err
	}
	cold, err := db.Run(sql)
	if err != nil {
		return nil, fmt.Errorf("repeated (cold): %w", err)
	}
	m := &RepeatedMeasurement{
		Candidates: cold.Stats.Candidates,
		UsedCSEs:   cold.Stats.UsedCSEs,
		ColdExec:   cold.ExecTime,
	}
	for _, st := range cold.Statements {
		m.RowCounts = append(m.RowCounts, len(st.Rows))
	}
	for rep := 0; rep < cfg.reps(); rep++ {
		warm, err := db.Run(sql)
		if err != nil {
			return nil, fmt.Errorf("repeated (warm rep %d): %w", rep, err)
		}
		if len(warm.Statements) != len(m.RowCounts) {
			return nil, fmt.Errorf("warm rep %d returned %d statements, cold run %d",
				rep, len(warm.Statements), len(m.RowCounts))
		}
		for i, st := range warm.Statements {
			if len(st.Rows) != m.RowCounts[i] {
				return nil, fmt.Errorf("warm rep %d statement %d returned %d rows, cold run %d",
					rep, i+1, len(st.Rows), m.RowCounts[i])
			}
		}
		if m.WarmExec == 0 || warm.ExecTime < m.WarmExec {
			m.WarmExec = warm.ExecTime
		}
		if rep == 0 && warm.ExecStats != nil {
			m.SpoolsCached = warm.ExecStats.CacheHits()
			m.SpoolsTotal = len(warm.ExecStats.SpoolRows)
		}
	}
	if c := db.ResultCache(); c != nil {
		st := c.Stats()
		m.Hits, m.Misses, m.Invalidations, m.CacheBytes = st.Hits, st.Misses, st.Invalidations, st.Bytes
	}
	m.Metrics = db.Metrics().Snapshot()
	return m, nil
}

// FormatRepeated renders the repeated-batch scenario.
func (r *RepeatedMeasurement) FormatRepeated() string {
	var sb strings.Builder
	sb.WriteString("Repeated batch with cross-batch result cache\n")
	fmt.Fprintf(&sb, "  candidates: %d (used: %d)\n", r.Candidates, len(r.UsedCSEs))
	fmt.Fprintf(&sb, "  cold execution time (secs): %.4f\n", r.ColdExec.Seconds())
	fmt.Fprintf(&sb, "  warm execution time (secs): %.4f\n", r.WarmExec.Seconds())
	if sp := r.WarmSpeedup(); sp > 0 {
		fmt.Fprintf(&sb, "  warm-cache speedup: %.2fx\n", sp)
	}
	fmt.Fprintf(&sb, "  spools served from cache (first warm run): %d/%d\n", r.SpoolsCached, r.SpoolsTotal)
	fmt.Fprintf(&sb, "  cache counters: %d hits, %d misses, %d invalidations, %d bytes\n",
		r.Hits, r.Misses, r.Invalidations, r.CacheBytes)
	return sb.String()
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
