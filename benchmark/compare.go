package main

import (
	"fmt"
	"io"
)

// verdict is one row of -compare.
type verdict struct {
	Workload, Metric string
	Old, New         float64 // medians
	Ratio            float64 // new / old
	Spread           float64 // the wider of the two interquartile ranges, as a share of its median
	Bound            float64
	Status           string // ok | regressed | unresolved
}

// judge decides one (workload, metric) pair. A metric whose own run-to-run
// spread is wider than its bound cannot show a change of the bound's size:
// that is unresolved, never ok.
func judge(ms metricSpec, old, new []float64) verdict {
	v := verdict{Metric: ms.Name, Old: median(old), New: median(new), Bound: ms.Bound}
	v.Ratio = ratio(v.New, v.Old)
	v.Spread = spread(old)
	if s := spread(new); s > v.Spread {
		v.Spread = s
	}
	worse := v.Ratio - 1
	if ms.Better == "higher" {
		worse = 1 - v.Ratio
	}
	switch {
	case v.Spread > ms.Bound:
		v.Status = "unresolved"
	case worse > ms.Bound:
		v.Status = "regressed"
	default:
		v.Status = "ok"
	}
	return v
}

// timingValues collects every timing run's value of each end-to-end metric,
// keyed by workload then metric.
func timingValues(rf *resultFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rf.Runs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric) present in
// both files and reports whether any regressed.
func compareFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) (bool, error) {
	oldRF, err := readResultFile(oldPath)
	if err != nil {
		return false, err
	}
	newRF, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	oldV, newV := timingValues(oldRF), timingValues(newRF)
	fmt.Fprintf(w, "old: %s (%s, %s)\nnew: %s (%s, %s)\n", oldPath, oldRF.Env.Commit, oldRF.Env.GoVersion, newPath, newRF.Env.Commit, newRF.Env.GoVersion)
	fmt.Fprintf(w, "%-14s %-12s %8s  %-24s %8s %7s  %s\n", "workload", "metric", "new/old", "base (old median)", "spread", "bound", "status")
	regressed := false
	for _, name := range spec.workloadNames() {
		for _, ms := range spec.EndToEnd {
			o, n := oldV[name][ms.Name], newV[name][ms.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v := judge(ms, o, n)
			regressed = regressed || v.Status == "regressed"
			fmt.Fprintf(w, "%-14s %-12s %8.3f  %-24s %7.1f%% %6.0f%%  %s\n", name, ms.Name, v.Ratio,
				fmt.Sprintf("%.4f %s, n=%d/%d", v.Old, ms.Unit, len(o), len(n)), 100*v.Spread, 100*v.Bound, v.Status)
		}
	}
	return regressed, nil
}
