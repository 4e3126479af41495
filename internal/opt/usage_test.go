package opt

import (
	"math/rand"
	"reflect"
	"testing"
)

// usageOf builds the signature with the given count per candidate ordinal.
func usageOf(candidates int, counts map[int]int) usage {
	u := noUses
	for ord, n := range counts {
		for ; n > 0; n-- {
			u = u.add(oneUse(ord, candidates))
		}
	}
	return u
}

// countsOf reads a signature back as the map it stands for.
func countsOf(u usage, candidates int) map[int]int {
	out := map[int]int{}
	for ord := 0; ord < candidates; ord++ {
		if n := u.count(ord); n != 0 {
			out[ord] = n
		}
	}
	return out
}

// The map-based bookkeeping the flat usage signatures replaced, kept here as
// the reference they must agree with.
func mergeUseMaps(a, b map[int]int) map[int]int {
	out := map[int]int{}
	for _, m := range []map[int]int{a, b} {
		for id, n := range m {
			out[id] += n
		}
	}
	return out
}

func mapHasSingleUse(m map[int]int) bool {
	for _, n := range m {
		if n == 1 {
			return true
		}
	}
	return false
}

func TestUsageBasics(t *testing.T) {
	a := usageOf(4, map[int]int{2: 1, 0: 3})
	b := usageOf(4, map[int]int{0: 3, 2: 1})
	if a != b {
		t.Error("equal signatures must be equal values whatever order they were built in")
	}
	if usageOf(4, nil) != noUses {
		t.Error("no uses → noUses")
	}
	if c := usageOf(4, map[int]int{0: 2, 2: 1}); a == c {
		t.Error("different counts must be different values")
	}
	if got := a.without(2); got != usageOf(4, map[int]int{0: 3}) {
		t.Errorf("without(2) = %v", countsOf(got, 4))
	}
	if oneUse(1, 4).without(1) != noUses {
		t.Error("settling the only use leaves noUses, not a row of zeros")
	}
	if usageOf(4, map[int]int{1: 2, 2: 3}).hasSingleUse() || !a.hasSingleUse() || noUses.hasSingleUse() {
		t.Error("hasSingleUse")
	}
	// More candidates than the stack scratch holds, and a count past one byte.
	wide := map[int]int{0: 1, stackCounts: 300, stackCounts + 5: 2}
	if got := countsOf(usageOf(stackCounts+6, wide), stackCounts+6); !reflect.DeepEqual(got, wide) {
		t.Errorf("wide signature round trip = %v", got)
	}
	if got := countsOf(usageOf(stackCounts+6, wide).without(stackCounts), stackCounts+6); !reflect.DeepEqual(got, map[int]int{0: 1, stackCounts + 5: 2}) {
		t.Errorf("wide signature without = %v", got)
	}
}

// TestUsageMatchesMapSemantics: on random signatures, the flat value behaves
// exactly as the map[int]int it replaced — merging adds counts and is
// commutative and associative, two values are equal iff the maps are,
// settling a candidate deletes its entry, and hasSingleUse is unchanged.
func TestUsageMatchesMapSemantics(t *testing.T) {
	const candidates = 9
	rng := rand.New(rand.NewSource(1))
	randomMap := func() map[int]int {
		m := map[int]int{}
		for k := rng.Intn(4); k > 0; k-- {
			m[rng.Intn(candidates)] = 1 + rng.Intn(3)
		}
		return m
	}
	var maps []map[int]int
	var sigs []usage
	for i := 0; i < 300; i++ {
		ma, mb, mc := randomMap(), randomMap(), randomMap()
		a, b, c := usageOf(candidates, ma), usageOf(candidates, mb), usageOf(candidates, mc)
		if !reflect.DeepEqual(countsOf(a, candidates), ma) {
			t.Fatalf("round trip of %v = %v", ma, countsOf(a, candidates))
		}
		ab := a.add(b)
		if want := mergeUseMaps(ma, mb); !reflect.DeepEqual(countsOf(ab, candidates), want) {
			t.Fatalf("%v + %v = %v, want %v", ma, mb, countsOf(ab, candidates), want)
		}
		if ab != b.add(a) {
			t.Fatalf("%v + %v is not commutative", ma, mb)
		}
		if ab.add(c) != a.add(b.add(c)) {
			t.Fatalf("(%v + %v) + %v is not associative", ma, mb, mc)
		}
		if ab.hasSingleUse() != mapHasSingleUse(mergeUseMaps(ma, mb)) {
			t.Fatalf("hasSingleUse(%v) disagrees with the map", countsOf(ab, candidates))
		}
		ord := rng.Intn(candidates)
		settled := mergeUseMaps(ma, nil)
		delete(settled, ord)
		if got := countsOf(a.without(ord), candidates); !reflect.DeepEqual(got, settled) {
			t.Fatalf("%v without %d = %v, want %v", ma, ord, got, settled)
		}
		maps = append(maps, ma, mergeUseMaps(ma, mb), settled)
		sigs = append(sigs, a, ab, a.without(ord))
	}
	for i := range sigs {
		for j := range sigs {
			if (sigs[i] == sigs[j]) != reflect.DeepEqual(maps[i], maps[j]) {
				t.Fatalf("signatures %q and %q for maps %v and %v", sigs[i], sigs[j], maps[i], maps[j])
			}
		}
	}
}
