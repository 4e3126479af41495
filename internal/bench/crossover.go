package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/csedb"
	"repro/internal/core"
	"repro/internal/qgen"
)

// CrossoverRun is one strategy's optimization of one batch size.
type CrossoverRun struct {
	// Strategy is the search the optimizer actually ran after resolving the
	// forced strategy against the candidate count ("lattice" or "greedy").
	Strategy string
	CSEOpts  int
	OptTime  time.Duration
	EstCost  float64
}

// CrossoverPoint compares the forced lattice against the forced greedy
// search on one generated batch.
type CrossoverPoint struct {
	Queries    int
	Candidates int
	BaseCost   float64
	Lattice    CrossoverRun
	Greedy     CrossoverRun
}

// CrossoverSizes returns the batch-size sweep: doubling from 4 up to and
// including maxN.
func CrossoverSizes(maxN int) []int {
	var out []int
	for n := 4; n <= maxN; n *= 2 {
		out = append(out, n)
	}
	if len(out) == 0 || out[len(out)-1] != maxN {
		out = append(out, maxN)
	}
	return out
}

// RunCrossover sweeps qgen batch sizes 4..maxN (doubling), optimizing each
// batch under the forced lattice and the forced greedy search over the
// same loaded data, and records where the greedy search overtakes the
// lattice in optimization time. Batches are only optimized, never executed:
// the experiment measures search cost, and execution would dwarf it at
// large N. Both strategies' plan costs are checked against the no-CSE
// baseline (never above it).
func RunCrossover(cfg Config, maxN int) ([]CrossoverPoint, error) {
	data := csedb.Open(csedb.Options{CacheBudget: -1})
	if err := data.LoadTPCH(cfg.ScaleFactor, cfg.Seed); err != nil {
		return nil, err
	}
	var out []CrossoverPoint
	for _, n := range CrossoverSizes(maxN) {
		b := qgen.New(qgen.Config{Seed: cfg.Seed + int64(n), MinQueries: n, MaxQueries: n, NoCTE: true}).Batch()
		sql := b.SQL()
		p := CrossoverPoint{Queries: n}
		for _, strat := range []core.SearchStrategy{core.SearchLattice, core.SearchGreedy} {
			s := core.DefaultSettings()
			s.SearchStrategy = strat
			db := csedb.OpenOn(data.Catalog(), data.Store(), csedb.Options{CSE: &s, CacheBudget: -1})
			run := CrossoverRun{}
			for rep := 0; rep < cfg.reps(); rep++ {
				start := time.Now()
				res, _, err := db.Optimize(sql)
				d := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("crossover n=%d %s: %w", n, strat, err)
				}
				st := res.Stats
				if st.FinalCost > st.BaseCost*(1+1e-9) {
					return nil, fmt.Errorf("crossover n=%d %s: final cost %.2f above no-CSE baseline %.2f",
						n, strat, st.FinalCost, st.BaseCost)
				}
				if rep == 0 || d < run.OptTime {
					run.OptTime = d
				}
				run.Strategy = st.SearchStrategy
				run.CSEOpts = st.CSEOptimizations
				run.EstCost = st.FinalCost
				p.Candidates = st.Candidates
				p.BaseCost = st.BaseCost
			}
			if strat == core.SearchLattice {
				p.Lattice = run
			} else {
				p.Greedy = run
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// CrossoverQueries returns the smallest batch size at which the greedy
// search beat the lattice in optimization time, or 0 when it never did.
func CrossoverQueries(points []CrossoverPoint) int {
	for _, p := range points {
		if p.Greedy.OptTime < p.Lattice.OptTime {
			return p.Queries
		}
	}
	return 0
}

// FormatCrossover renders the sweep with the crossover point called out.
func FormatCrossover(points []CrossoverPoint) string {
	var sb strings.Builder
	sb.WriteString("Lattice vs greedy MQO search (optimization only, min over reps)\n")
	sb.WriteString("  queries | cands | lattice opts/time      | greedy opts/time       | cost lattice/greedy\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "  %7d | %5d | %4d  %12.4fs | %4d  %12.4fs | %.0f / %.0f\n",
			p.Queries, p.Candidates,
			p.Lattice.CSEOpts, p.Lattice.OptTime.Seconds(),
			p.Greedy.CSEOpts, p.Greedy.OptTime.Seconds(),
			p.Lattice.EstCost, p.Greedy.EstCost)
	}
	if n := CrossoverQueries(points); n > 0 {
		fmt.Fprintf(&sb, "  greedy overtakes the lattice at %d queries\n", n)
	} else {
		sb.WriteString("  greedy never overtook the lattice in this sweep\n")
	}
	return sb.String()
}

// CSVCrossover renders the sweep as CSV for plotting.
func CSVCrossover(points []CrossoverPoint) string {
	var sb strings.Builder
	sb.WriteString("queries,candidates,base_cost,lattice_strategy,lattice_opts,lattice_opt_s,lattice_cost,greedy_strategy,greedy_opts,greedy_opt_s,greedy_cost\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "%d,%d,%.2f,%s,%d,%.6f,%.2f,%s,%d,%.6f,%.2f\n",
			p.Queries, p.Candidates, p.BaseCost,
			p.Lattice.Strategy, p.Lattice.CSEOpts, p.Lattice.OptTime.Seconds(), p.Lattice.EstCost,
			p.Greedy.Strategy, p.Greedy.CSEOpts, p.Greedy.OptTime.Seconds(), p.Greedy.EstCost)
	}
	return sb.String()
}
