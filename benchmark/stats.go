package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0–100) of an ascending-sorted
// sample by linear interpolation between the two nearest ranks. Interpolating
// keeps the value moving smoothly when the sample count changes from run to
// run, which a nearest-rank pick does not.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailPercentiles are the percentiles a report may quote, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestSupported returns the highest percentile that leaves at least ten
// samples beyond it — the tail a sample of n can actually speak for. Below
// twenty samples only the median is left.
func highestSupported(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-6 { // n(100-p)/100 >= 10, safe from 99.9's binary form
			return p
		}
	}
	return 50
}

// quartiles returns Q1, Q2 and Q3 by the exclusive method, which is what
// Python's statistics.quantiles(values, n=4) computes: the driver measures
// run-to-run spread with that function, so -compare and -selfcheck must too.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// latencies accumulates per-operation latencies in milliseconds.
type latencies struct{ ms []float64 }

func (l *latencies) add(ms float64) { l.ms = append(l.ms, ms) }

func (l *latencies) sorted() []float64 {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	return s
}
