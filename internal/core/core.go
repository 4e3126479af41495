package core

import (
	"fmt"
	"strings"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/opt"
)

// SearchStrategy selects the §5.3 cost-based selection search over candidate
// subsets.
type SearchStrategy string

const (
	// SearchAuto (the zero value) picks the exhaustive lattice for candidate
	// sets small enough to enumerate and the greedy local search beyond that.
	SearchAuto SearchStrategy = "auto"

	// SearchLattice forces the paper's §5.3 subset enumeration with
	// Propositions 5.4–5.6 pruning. Beyond 63 candidates (the mask width)
	// it degrades to greedy.
	SearchLattice SearchStrategy = "lattice"

	// SearchGreedy forces the greedy marginal-gain local search (Volcano-RU
	// style seed plus add/drop moves) regardless of candidate count.
	SearchGreedy SearchStrategy = "greedy"
)

// ParseSearchStrategy validates a strategy name from a flag or shell command.
// The empty string means auto.
func ParseSearchStrategy(s string) (SearchStrategy, error) {
	switch SearchStrategy(s) {
	case "", SearchAuto:
		return SearchAuto, nil
	case SearchLattice:
		return SearchLattice, nil
	case SearchGreedy:
		return SearchGreedy, nil
	}
	return "", fmt.Errorf("unknown search strategy %q (want auto, lattice, or greedy)", s)
}

// resolveSearchStrategy maps the requested strategy and the candidate count
// to the strategy actually run. Auto switches to greedy past the lattice
// enumeration bound; a forced lattice switches only when the candidate
// universe no longer fits the uint64 subset masks.
func resolveSearchStrategy(s SearchStrategy, n int) SearchStrategy {
	switch s {
	case SearchGreedy:
		return SearchGreedy
	case SearchLattice:
		if n > maxMaskCandidates {
			return SearchGreedy
		}
		return SearchLattice
	default:
		if n > maxLatticeCandidates {
			return SearchGreedy
		}
		return SearchLattice
	}
}

// Settings controls the CSE optimization phase.
type Settings struct {
	// EnableCSE turns the whole CSE phase on. Off reproduces the paper's
	// "No CSE" baseline.
	EnableCSE bool

	// Heuristics enables the four pruning heuristics of §4.3 and Algorithm 1
	// merging; when false, one candidate per join-compatible class covering
	// all its consumers is generated (the paper's "no heuristics" columns).
	Heuristics bool

	// Alpha is Heuristic 1's threshold fraction of total query cost
	// (paper: 10%).
	Alpha float64

	// Beta is Heuristic 4's containment size ratio (paper: 90%).
	Beta float64

	// MinMergeBenefit is the Δ floor for Algorithm 1 (§4.3.3): a greedy
	// merge step is taken only when its benefit strictly exceeds this. The
	// paper's formulation is Δ > 0 (the default); raising it makes merging
	// more conservative and is exposed for knob-sweep testing.
	MinMergeBenefit float64

	// SubsetPruning enables Propositions 5.4–5.6 when enumerating candidate
	// subsets (§5.3); disabling it forces all 2^N−1 optimizations (ablation).
	SubsetPruning bool

	// StackedCSE enables §5.5 stacked covering subexpressions.
	StackedCSE bool

	// MaxCandidates caps the candidate count as a safety valve (0 = default).
	MaxCandidates int

	// MaxCSEOptimizations bounds the number of reoptimizations in the CSE
	// phase. The paper's optimizer likewise gates optimization phases on
	// elapsed time (§2.1); without heuristic pruning the 2^N−1 subset
	// lattice can otherwise dominate. 0 means the default (256).
	MaxCSEOptimizations int

	// MinQueryCost gates the CSE phase: queries cheaper than this skip it
	// (the paper enters the phase "only if the query is expensive").
	MinQueryCost float64

	// ChargeAtRoot (ablation) charges every candidate's initial cost at the
	// batch root instead of the consumers' common dominator (§5.2).
	ChargeAtRoot bool

	// NoHistoryReuse (ablation) disables §5.4 optimization-history reuse
	// across CSE reoptimizations: each one starts from empty caches. The
	// plans and costs are the same; only the work differs.
	NoHistoryReuse bool

	// SearchStrategy selects how the §5.3 cost-based selection searches the
	// candidate subset lattice: SearchAuto (default) enumerates exhaustively
	// up to maxLatticeCandidates candidates and uses the greedy local search
	// beyond; SearchLattice and SearchGreedy force one strategy.
	SearchStrategy SearchStrategy

	// ExtendedSubsetPruning enables a sound strengthening of Proposition
	// 5.6 (an extension beyond the paper): after optimizing with S enabled
	// and observing the winner used S* ⊆ S, every set between S* and S is
	// redundant — opt(S) explored a superset of opt(S')'s plans and its
	// winner is feasible for any S' ⊇ S*, so it is optimal for all of them.
	ExtendedSubsetPruning bool
}

// DefaultSettings returns the paper's configuration.
func DefaultSettings() Settings {
	return Settings{
		EnableCSE:           true,
		Heuristics:          true,
		Alpha:               0.10,
		Beta:                0.90,
		SubsetPruning:       true,
		StackedCSE:          true,
		SearchStrategy:      SearchAuto,
		MaxCandidates:       64,
		MaxCSEOptimizations: 256,
	}
}

// Stats reports what the CSE phase did — the quantities the paper's tables
// record.
type Stats struct {
	// SignatureSets is the number of signatures referenced by two or more
	// expressions (detection hits).
	SignatureSets int

	// Candidates is the number of candidate CSEs given to the optimizer
	// (the paper's "# of CSEs").
	Candidates int

	// CandidateLabels describes each candidate.
	CandidateLabels []string

	// CSEOptimizations is the number of reoptimizations performed in the
	// CSE phase (the paper's bracketed "[CSE Opts]").
	CSEOptimizations int

	// SearchStrategy is the subset-search strategy the phase actually ran
	// ("lattice" or "greedy") after resolving Settings.SearchStrategy against
	// the candidate count; empty when the phase never reached the search.
	SearchStrategy string

	// BaseCost is the estimated cost of the best plan found by normal
	// optimization (C_Q); FinalCost is the chosen plan's estimated cost.
	BaseCost  float64
	FinalCost float64

	// UsedCSEs lists the candidate IDs the final plan actually uses.
	UsedCSEs []int

	// PrunedH1..PrunedH4 count the §4.3 heuristic prune decisions: signature
	// sets / compatibility classes rejected by Heuristic 1, consumers dropped
	// by Heuristic 2, trivial specs discarded by Algorithm 1's Δ-benefit test
	// (Heuristic 3), and contained candidates discarded by Heuristic 4. They
	// are always counted (no tracing required) so the metrics registry can
	// report them cheaply.
	PrunedH1 int
	PrunedH2 int
	PrunedH3 int
	PrunedH4 int

	// Work is what the CSEOptimizations reoptimizations had to do between
	// them: groups recosted, groups answered from optimization history, and
	// statements refolded into the batch root.
	Work opt.CSEWork
}

// Output bundles everything the engine and harnesses need.
type Output struct {
	Result     *opt.Result
	Base       *opt.Result
	Stats      Stats
	Candidates []*opt.Candidate
	Optimizer  *opt.Optimizer

	// Trace holds the structured optimizer trace when one was passed to
	// OptimizeObserved; nil otherwise.
	Trace *obs.Trace
}

// Optimize runs normal optimization followed, when enabled and worthwhile,
// by the CSE phase: signature-based detection, candidate generation with
// heuristic pruning, and cost-based selection over candidate subsets. The
// returned plan is the cheapest found; it may use no CSEs at all.
func Optimize(m *memo.Memo, settings Settings) (*Output, error) {
	return OptimizeObserved(m, settings, nil, nil)
}

// OptimizeObserved is Optimize under observation. When tr is non-nil, every
// signature-match, heuristic prune (with the cost bounds and α/β/Δ
// thresholds that triggered it), Algorithm 1 merge, charge-group assignment,
// and subset reoptimization is recorded on it. When span is non-nil, the
// optimizer's phases — base optimization, signature/candidate formation
// (with the H1–H4 prune counts as attributes), and the §5.3 subset
// reoptimization — are recorded as child spans. A nil tr or span disables
// that kind of hook, keeping the unobserved path free of overhead; the two
// are independent.
func OptimizeObserved(m *memo.Memo, settings Settings, tr *obs.Trace, span *obs.Span) (*Output, error) {
	o := opt.NewOptimizer(m)
	baseSpan := span.Child("optimize-base")
	base, err := o.OptimizeBase()
	if err != nil {
		baseSpan.End()
		return nil, err
	}
	baseSpan.SetAttr("base_cost", base.Cost)
	baseSpan.End()
	out := &Output{Result: base, Base: base, Optimizer: o, Trace: tr}
	out.Stats.BaseCost = base.Cost
	out.Stats.FinalCost = base.Cost
	if !settings.EnableCSE || base.Cost < settings.MinQueryCost {
		return out, nil
	}

	candSpan := span.Child("candidates")
	gen := &generator{m: m, o: o, set: settings, cq: base.Cost, stats: &out.Stats, trace: tr}
	specs, err := gen.generate()
	if err != nil {
		candSpan.End()
		return nil, err
	}
	if len(specs) == 0 {
		candSpan.SetAttr("candidates", 0)
		candSpan.End()
		return out, nil
	}
	cands, err := gen.finalize(specs)
	if err != nil {
		candSpan.End()
		return nil, err
	}
	if settings.StackedCSE {
		addStackedConsumers(m, specs, cands)
	}
	out.Candidates = cands
	out.Stats.Candidates = len(cands)
	for _, c := range cands {
		out.Stats.CandidateLabels = append(out.Stats.CandidateLabels, c.Label)
	}
	candSpan.SetAttr("signature_sets", out.Stats.SignatureSets)
	candSpan.SetAttr("candidates", len(cands))
	candSpan.SetAttr("pruned_h1", out.Stats.PrunedH1)
	candSpan.SetAttr("pruned_h2", out.Stats.PrunedH2)
	candSpan.SetAttr("pruned_h3", out.Stats.PrunedH3)
	candSpan.SetAttr("pruned_h4", out.Stats.PrunedH4)
	candSpan.End()

	maxOpts := settings.MaxCSEOptimizations
	if maxOpts <= 0 {
		maxOpts = 256
	}
	o.ChargeAtRoot = settings.ChargeAtRoot
	o.NoHistoryReuse = settings.NoHistoryReuse
	o.PrepareCSE(cands)
	if tr != nil {
		for _, c := range cands {
			tr.Add(obs.Event{
				Kind:   obs.EvCharge,
				Label:  fmt.Sprintf("CSE%d: %s", c.ID, c.Label),
				Groups: []int{int(c.ChargeGroup)},
				Reason: "initial cost charged at the consumers' common dominator",
			})
		}
	}
	strategy := resolveSearchStrategy(settings.SearchStrategy, len(cands))
	out.Stats.SearchStrategy = string(strategy)
	subsetSpan := span.Child("subset-reoptimization")
	subsetSpan.SetAttr("strategy", string(strategy))
	best, used, nOpts, err := optimizeSubsets(o, m, cands, subsetOpts{
		pruning:  settings.SubsetPruning,
		extended: settings.ExtendedSubsetPruning,
		maxOpts:  maxOpts,
		strategy: strategy,
		baseCost: base.Cost,
		trace:    tr,
		span:     subsetSpan,
	})
	if err != nil {
		subsetSpan.End()
		return nil, err
	}
	subsetSpan.SetAttr("reoptimizations", nOpts)
	out.Stats.CSEOptimizations = nOpts
	out.Stats.Work = o.Work
	setWorkAttrs(subsetSpan, o.Work)
	if best != nil && best.Cost < base.Cost {
		out.Result = best
		out.Stats.FinalCost = best.Cost
		out.Stats.UsedCSEs = used
	}
	subsetSpan.SetAttr("final_cost", out.Stats.FinalCost)
	subsetSpan.SetAttr("used_cses", len(out.Stats.UsedCSEs))
	subsetSpan.End()
	if tr != nil {
		tr.Add(obs.Event{
			Kind: obs.EvFinal,
			Used: append([]int(nil), out.Stats.UsedCSEs...),
			Values: map[string]float64{
				"base_cost":  out.Stats.BaseCost,
				"final_cost": out.Stats.FinalCost,
			},
		})
	}
	// The CSE phase caches per-group plan alternatives for history reuse;
	// the chosen plan no longer needs them.
	o.ReleaseCaches()
	return out, nil
}

// setWorkAttrs records reoptimization work on a span.
func setWorkAttrs(span *obs.Span, w opt.CSEWork) {
	span.SetAttr("groups_recosted", w.GroupsRecosted)
	span.SetAttr("alt_cache_hits", w.AltCacheHits)
	span.SetAttr("root_children_refolded", w.RootChildrenRefolded)
}

// Describe renders the CSE phase's decisions for inspection and debugging:
// per candidate, its covering expression, consumers, charge group, and
// whether the final plan uses it.
func (out *Output) Describe(m *memo.Memo) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "normal optimization cost: %.2f\n", out.Stats.BaseCost)
	if len(out.Candidates) == 0 {
		sb.WriteString("no candidate covering subexpressions\n")
		return sb.String()
	}
	used := make(map[int]bool, len(out.Stats.UsedCSEs))
	for _, id := range out.Stats.UsedCSEs {
		used[id] = true
	}
	fmt.Fprintf(&sb, "candidates: %d, reoptimizations: %d, final cost: %.2f\n",
		out.Stats.Candidates, out.Stats.CSEOptimizations, out.Stats.FinalCost)
	for _, c := range out.Candidates {
		marker := " "
		if used[c.ID] {
			marker = "*"
		}
		fmt.Fprintf(&sb, "%s E%d: %s\n", marker, c.ID+1, c.Label)
		fmt.Fprintf(&sb, "    rows=%.0f bytes=%.0f grouped=%v stacked=%v charge=G%d\n",
			c.Rows, c.Bytes, c.Grouped, c.StackUsed, c.ChargeGroup)
		fmt.Fprintf(&sb, "    consumers:")
		for _, g := range c.Consumers {
			fmt.Fprintf(&sb, " G%d(stmt %d)", g, m.Group(g).StmtIdx)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("(* = used in the final plan)\n")
	return sb.String()
}
