package csedb

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/obs"
	"repro/internal/opt"
)

// ExplainAnalyze executes a batch with per-operator instrumentation and
// renders the executed plan with runtime actuals (rows produced, cumulative
// wall time, spool hit counts) next to the optimizer's estimates, followed
// by the CSE decision trail (every H1–H4 prune with its thresholds) and an
// execution summary. The batch really runs: side effects (view
// materialization is the only one for SELECT batches — none) apply.
func (db *DB) ExplainAnalyze(sql string) (string, error) {
	return db.ExplainAnalyzeContext(context.Background(), sql)
}

// ExplainAnalyzeContext is ExplainAnalyze with a cancellation context.
func (db *DB) ExplainAnalyzeContext(ctx context.Context, sql string) (string, error) {
	var p *Prepared
	res, err := db.observed(func(root *obs.Span) (*BatchResult, error) {
		stmts, err := parse(root, sql)
		if err != nil {
			return nil, err
		}
		// EXPLAIN ANALYZE always traces: the decision trail is part of its
		// output regardless of the database-wide tracing toggle.
		p, err = db.plan(stmts, obs.NewTrace(), root)
		if err != nil {
			return nil, err
		}
		return db.execute(ctx, root, p, p.prepareTime, true)
	})
	if err != nil {
		return "", err
	}
	return renderAnalyzed(p.out, p.batch.Metadata, res.ExecStats, res.OptimizeTime, res.ExecTime), nil
}

// renderAnalyzed assembles the EXPLAIN ANALYZE text.
func renderAnalyzed(out *core.Output, md *logical.Metadata, stats *exec.Stats, optTime, execTime time.Duration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "estimated cost: %.2f (base %.2f), optimized in %s, executed in %s\n",
		out.Stats.FinalCost, out.Stats.BaseCost, optTime.Round(time.Microsecond), execTime.Round(time.Microsecond))

	sb.WriteString(out.Result.FormatAnnotated(md, func(p *opt.Plan) string {
		ns, ok := stats.Nodes[p]
		if !ok {
			return ""
		}
		actual := fmt.Sprintf("[actual rows=%d time=%s", ns.Rows, ns.Time.Round(time.Microsecond))
		if ns.Execs > 1 {
			actual += fmt.Sprintf(" execs=%d", ns.Execs)
		}
		if ns.Par > 1 {
			actual += fmt.Sprintf(" par=%d", ns.Par)
		}
		if p.Op == opt.PSpoolScan {
			actual += fmt.Sprintf(" hits=%d", stats.SpoolHits[p.SpoolID])
		}
		if ns.Wait > 0 {
			actual += fmt.Sprintf(" wait=%s", ns.Wait.Round(time.Microsecond))
		}
		return actual + "]"
	}))

	// The CSE decision trail: every pruning decision with its evidence, plus
	// candidates, charge groups, and the subset search.
	sb.WriteString("CSE decisions:\n")
	for _, e := range out.Trace.Events() {
		sb.WriteString("  ")
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}

	fmt.Fprintf(&sb, "execution: workers=%d morsels=%d parallel-ops=%d utilization=%.0f%% busy=%s wall=%s\n",
		stats.Workers, stats.Morsels, stats.ParallelOps, stats.Utilization()*100,
		stats.BusyTime.Round(time.Microsecond), stats.WallTime.Round(time.Microsecond))
	return sb.String()
}
