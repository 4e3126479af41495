// Package difftest is the engine's differential correctness oracle. It runs
// a SQL batch through a matrix of engine configurations — CSE on/off,
// sequential/parallel execution, result cache on/off, morsel chunk sizes,
// heuristic knob sweeps — and demands byte-identical normalized results from
// every cell, plus optimizer-trace and executor-stats invariants in each.
// Any divergence is a bug by construction: the configurations differ only in
// strategy, never in semantics.
//
// The package also hosts the greedy shrinker that reduces a failing
// generated batch (internal/qgen) to a minimal reproduction and prints a
// ready-to-paste regression test.
package difftest

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/qgen"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Config is one cell of the differential matrix.
type Config struct {
	Name     string
	Settings core.Settings
	// Parallelism: 0 = GOMAXPROCS workers, 1 = sequential executor.
	Parallelism int
	// ChunkSize overrides the morsel granularity (0 = default).
	ChunkSize int
	// Cache enables a fresh cross-batch result cache for this cell.
	Cache bool
	// Repeat re-executes the batch this many times against the same cache,
	// so warm (cached) runs are compared against cold ones. 0 means 1.
	Repeat int

	// Observe runs the cell with span tracing enabled end to end (optimizer
	// phases, waves, spools, statements). Observability must never change
	// results — this cell pins that byte-for-byte — and the cell additionally
	// checks span-lifecycle invariants (no unfinished spans after a clean
	// run).
	Observe bool

	// RowPlane disables the columnar data plane (exec.Options.NoColPlane),
	// forcing the row-at-a-time reference path. The row-plane baseline is
	// what pins the selection kernels byte-for-byte.
	RowPlane bool

	// Server routes the batch through the serving layer instead of direct
	// execution: statements are dealt round-robin to Sessions concurrent
	// fake clients against a coalescing server over the shared store, and
	// the demuxed results are reassembled in original order.
	Server bool
	// NoCoalesce disables the server's coalescing window for this cell
	// (every request runs alone); only meaningful with Server.
	NoCoalesce bool
	// Sessions is the number of concurrent client sessions (default 1).
	Sessions int
}

// Matrix returns the full differential configuration matrix. The first
// entry is the baseline every other cell is compared against: CSE disabled
// on the sequential executor — the simplest, most independent path.
func Matrix() []Config {
	def := core.DefaultSettings()
	vary := func(f func(*core.Settings)) core.Settings {
		s := def
		f(&s)
		return s
	}
	off := vary(func(s *core.Settings) { s.EnableCSE = false })
	greedy := vary(func(s *core.Settings) { s.SearchStrategy = core.SearchGreedy })
	return []Config{
		// The baseline is the row-at-a-time sequential interpreter with CSE
		// off: the simplest, most independent path. Every columnar cell below
		// is therefore pinned byte-for-byte against the row plane.
		{Name: "nocse-seq-row", Settings: off, Parallelism: 1, RowPlane: true},
		{Name: "nocse-seq", Settings: off, Parallelism: 1},
		{Name: "nocse-par", Settings: off},
		{Name: "cse-par-row", Settings: def, RowPlane: true},
		{Name: "cse-cache-row", Settings: def, Cache: true, Repeat: 2, RowPlane: true},
		{Name: "cse-seq", Settings: def, Parallelism: 1},
		{Name: "cse-par", Settings: def},
		{Name: "cse-greedy", Settings: greedy, Parallelism: 1},
		{Name: "cse-greedy-par", Settings: greedy},
		{Name: "cse-par-cache", Settings: def, Cache: true, Repeat: 2},
		{Name: "cse-par-observed", Settings: def, Observe: true},
		{Name: "cse-cache-observed", Settings: def, Cache: true, Repeat: 2, Observe: true},
		{Name: "cse-chunk1", Settings: def, ChunkSize: 1},
		{Name: "cse-chunk7", Settings: def, ChunkSize: 7},
		{Name: "cse-chunk1024", Settings: def, ChunkSize: 1024},
		{Name: "cse-noheur", Settings: vary(func(s *core.Settings) { s.Heuristics = false })},
		{Name: "alpha-0.05", Settings: vary(func(s *core.Settings) { s.Alpha = 0.05 })},
		{Name: "alpha-0.20", Settings: vary(func(s *core.Settings) { s.Alpha = 0.20 })},
		{Name: "beta-0.80", Settings: vary(func(s *core.Settings) { s.Beta = 0.80 })},
		{Name: "beta-0.95", Settings: vary(func(s *core.Settings) { s.Beta = 0.95 })},
		{Name: "delta-raised", Settings: vary(func(s *core.Settings) { s.MinMergeBenefit = 1e4 })},
		{Name: "server-coalesce", Settings: def, Server: true, Sessions: 4},
		{Name: "server-nocoalesce", Settings: def, Server: true, NoCoalesce: true, Sessions: 4},
	}
}

// Smoke returns a reduced matrix for tight loops (fuzzing): the baseline
// plus the cells most likely to diverge.
func Smoke() []Config {
	m := Matrix()
	keep := map[string]bool{"nocse-seq-row": true, "nocse-seq": true, "cse-par": true, "cse-par-row": true, "cse-greedy": true, "cse-chunk1": true, "cse-par-cache": true, "cse-par-observed": true}
	var out []Config
	for _, c := range m {
		if keep[c.Name] {
			out = append(out, c)
		}
	}
	return out
}

// Mismatch reports a differential divergence between two configurations.
type Mismatch struct {
	Base, Config string
	Diff         string
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("differential mismatch: config %q differs from baseline %q:\n%s", m.Config, m.Base, m.Diff)
}

// Oracle holds the database under test and the configuration matrix.
type Oracle struct {
	Cat     *catalog.Catalog
	Store   *storage.Store
	Configs []Config
}

// New returns an oracle over an empty database; install schemas with
// InstallSchema before checking batches.
func New(cfgs []Config) *Oracle {
	return &Oracle{Cat: catalog.New(), Store: storage.NewStore(), Configs: cfgs}
}

// NewTPCH returns an oracle over a generated TPC-H database.
func NewTPCH(scaleFactor float64, cfgs []Config) (*Oracle, error) {
	o := New(cfgs)
	for _, tab := range tpch.Schemas() {
		if err := o.Cat.Add(tab); err != nil {
			return nil, err
		}
	}
	if err := tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: 42}, o.Cat, o.Store); err != nil {
		return nil, err
	}
	return o, nil
}

// InstallSchema loads a synthetic qgen schema into the oracle's database.
func (o *Oracle) InstallSchema(s *qgen.Schema) error { return s.Install(o.Cat, o.Store) }

// Check runs the batch through every configuration and returns nil when all
// cells agree byte-for-byte and satisfy their invariants. The returned error
// is a *Mismatch for result divergences.
func (o *Oracle) Check(sql string) error {
	stmts, err := parser.Parse(sql)
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if len(stmts) == 0 {
		return fmt.Errorf("empty batch")
	}
	var baseName, baseText string
	for i, cfg := range o.Configs {
		var text string
		if cfg.Server {
			text, err = o.runServerConfig(cfg, sql)
		} else {
			text, err = o.runConfig(cfg, stmts)
		}
		if err != nil {
			return fmt.Errorf("config %q: %w", cfg.Name, err)
		}
		if i == 0 {
			baseName, baseText = cfg.Name, text
			continue
		}
		if d := Diff(baseText, text); d != "" {
			return &Mismatch{Base: baseName, Config: cfg.Name, Diff: d}
		}
	}
	return nil
}

// CheckBatch is Check over a generated batch.
func (o *Oracle) CheckBatch(b *qgen.Batch) error { return o.Check(b.SQL()) }

// runConfig optimizes and executes the batch under one configuration and
// returns the normalized result text.
func (o *Oracle) runConfig(cfg Config, stmts []parser.Statement) (string, error) {
	batch, err := logical.BuildBatch(stmts, o.Cat)
	if err != nil {
		return "", fmt.Errorf("build: %w", err)
	}
	m, err := memo.Build(batch)
	if err != nil {
		return "", fmt.Errorf("memo: %w", err)
	}
	tr := obs.NewTrace()
	var rec *obs.SpanRecorder
	var root *obs.Span
	if cfg.Observe {
		rec = obs.NewSpanRecorder()
		root = rec.StartSpan("batch")
	}
	out, err := core.OptimizeObserved(m, cfg.Settings, tr, root)
	if err != nil {
		return "", fmt.Errorf("optimize: %w", err)
	}
	if err := checkOptimizerInvariants(m, out, tr); err != nil {
		return "", fmt.Errorf("optimizer invariant: %w", err)
	}
	var c *cache.Cache
	if cfg.Cache {
		c = cache.New(64<<20, nil)
	}
	repeat := cfg.Repeat
	if repeat < 1 {
		repeat = 1
	}
	var text string
	for r := 0; r < repeat; r++ {
		res, stats, err := exec.RunWithOptions(context.Background(), out.Result, batch.Metadata, o.Store, exec.Options{
			Parallelism: cfg.Parallelism,
			ChunkSize:   cfg.ChunkSize,
			Cache:       c,
			Span:        root,
			NoColPlane:  cfg.RowPlane,
		})
		if err != nil {
			return "", fmt.Errorf("exec (run %d): %w", r+1, err)
		}
		if err := checkExecInvariants(out.Result, stats); err != nil {
			return "", fmt.Errorf("exec invariant (run %d): %w", r+1, err)
		}
		t := Normalize(res)
		if r == 0 {
			text = t
		} else if d := Diff(text, t); d != "" {
			return "", &Mismatch{Base: fmt.Sprintf("%s run 1 (cold)", cfg.Name), Config: fmt.Sprintf("%s run %d (warm)", cfg.Name, r+1), Diff: d}
		}
	}
	if cfg.Observe {
		root.End()
		// Every span a clean run started must have been ended by the code
		// that started it; an unfinished span is a lifecycle leak.
		if n := rec.Unfinished(); n != 0 {
			return "", fmt.Errorf("span invariant: %d spans left unfinished after a clean run", n)
		}
		if len(stmts) > 0 && obs.Find(rec.Tree(), "statement") == nil {
			return "", fmt.Errorf("span invariant: no statement span recorded")
		}
	}
	return text, nil
}

// Normalize renders statement results into a canonical form for diff:
// column headers, then rows sorted lexicographically. Float cells are
// written exactly and marked with a leading '~'; every other cell is its
// plain text.
func Normalize(res []*exec.StatementResult) string {
	var sb strings.Builder
	for i, sr := range res {
		fmt.Fprintf(&sb, "-- statement %d: %s\n", i+1, strings.Join(sr.Names, ", "))
		lines := make([]string, len(sr.Rows))
		for j, row := range sr.Rows {
			lines[j] = normalizeRow(row)
		}
		sort.Strings(lines)
		for _, l := range lines {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func normalizeRow(r sqltypes.Row) string {
	var sb strings.Builder
	for i, d := range r {
		if i > 0 {
			sb.WriteByte('\t')
		}
		if d.Kind() == sqltypes.KindFloat {
			sb.WriteByte('~')
			sb.WriteString(strconv.FormatFloat(d.Float(), 'g', -1, 64))
		} else {
			sb.WriteString(d.String())
		}
	}
	return sb.String()
}

// Diff compares two Normalize texts: "" when they agree, else the first
// divergence. Everything must be byte-identical except float cells, which
// agree within a billionth of each other relative to their size: different
// plans add the same numbers in different orders, which moves the last few
// bits, and rounding both sides to fixed decimals instead would call
// 190008.39075000001 and 190008.39074999999 different.
func Diff(a, b string) string {
	if a == b {
		return ""
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !sameLine(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  baseline: %s\n  got:      %s", i+1, al[i], bl[i])
		}
	}
	if len(al) != len(bl) {
		return fmt.Sprintf("baseline has %d lines, got %d", len(al), len(bl))
	}
	return ""
}

func sameLine(a, b string) bool {
	if a == b {
		return true
	}
	ac, bc := strings.Split(a, "\t"), strings.Split(b, "\t")
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if ac[i] == bc[i] {
			continue
		}
		if !strings.HasPrefix(ac[i], "~") || !strings.HasPrefix(bc[i], "~") {
			return false
		}
		x, errX := strconv.ParseFloat(ac[i][1:], 64)
		y, errY := strconv.ParseFloat(bc[i][1:], 64)
		if errX != nil || errY != nil {
			return false
		}
		if math.Abs(x-y) > 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
			return false
		}
	}
	return true
}
