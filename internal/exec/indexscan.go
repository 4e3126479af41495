package exec

import (
	"sort"

	"repro/internal/opt"
	"repro/internal/sqltypes"
)

// indexSpan binary-searches both ends of the qualifying range of a sorted
// row permutation, so the span is known up front and can be processed in
// morsels. NULL values sort first and never satisfy a range predicate, so
// they are skipped when the range is unbounded from below.
func indexSpan(rows []sqltypes.Row, perm []int, ord int, b opt.Bounds) []int {
	start := 0
	if !b.Lo.IsNull() {
		start = sort.Search(len(perm), func(i int) bool {
			cmp := sqltypes.Compare(rows[perm[i]][ord], b.Lo)
			if b.LoInc {
				return cmp >= 0
			}
			return cmp > 0
		})
	} else {
		start = sort.Search(len(perm), func(i int) bool {
			return !rows[perm[i]][ord].IsNull()
		})
	}
	end := len(perm)
	if !b.Hi.IsNull() {
		end = start + sort.Search(len(perm)-start, func(i int) bool {
			cmp := sqltypes.Compare(rows[perm[start+i]][ord], b.Hi)
			return cmp > 0 || (cmp == 0 && !b.HiInc)
		})
	}
	return perm[start:end]
}
