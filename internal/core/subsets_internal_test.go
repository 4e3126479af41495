package core

import (
	"math/bits"
	"sort"
	"testing"
)

// The lattice's lazy Gosper enumeration must visit exactly the masks the old
// materialize-and-sort enumeration visited, in the same order: popcount
// descending, numerically ascending within a popcount band.
func TestLatticeEnumerationOrder(t *testing.T) {
	const n = 5
	full := uint64(1)<<n - 1

	var want []uint64
	for m := full; m >= 1; m-- {
		want = append(want, m)
	}
	sort.SliceStable(want, func(a, b int) bool {
		pa, pb := bits.OnesCount64(want[a]), bits.OnesCount64(want[b])
		if pa != pb {
			return pa > pb
		}
		return want[a] < want[b]
	})

	var got []uint64
	for k := n; k >= 1; k-- {
		mask := uint64(1)<<uint(k) - 1
		for ok := true; ok; mask, ok = gosperNext(mask, full) {
			got = append(got, mask)
		}
	}

	if len(got) != len(want) {
		t.Fatalf("enumerated %d masks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mask %d: got %b, want %b", i, got[i], want[i])
		}
	}
}
