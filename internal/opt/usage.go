package opt

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// usage is a usage signature: for every candidate, how many not-yet-charged
// consumers a (partial) plan has. It is stored flat — one little-endian
// uint32 count per candidate ordinal — in an immutable string, so the value
// is its own comparable key: equal signatures are equal strings. A plan that
// reads no uncharged spool has the empty signature, never a row of zeros.
type usage string

const (
	noUses     usage = ""
	countBytes       = 4
	// stackCounts is how many candidates a signature being formed holds
	// without a heap scratch buffer: the default candidate cap.
	stackCounts = 64
)

func (u usage) at(i int) uint32 {
	return uint32(u[i]) | uint32(u[i+1])<<8 | uint32(u[i+2])<<16 | uint32(u[i+3])<<24
}

// count is how many uncharged consumers of the candidate u records.
func (u usage) count(ord int) int {
	if u == noUses {
		return 0
	}
	return int(u.at(ord * countBytes))
}

// hasSingleUse reports whether some candidate is used exactly once.
func (u usage) hasSingleUse() bool {
	for i := 0; i < len(u); i += countBytes {
		if u.at(i) == 1 {
			return true
		}
	}
	return false
}

// oneUse is the signature of a single use of one of n candidates.
func oneUse(ord, n int) usage {
	buf := make([]byte, n*countBytes)
	buf[ord*countBytes] = 1
	return usage(buf)
}

// add is the signature of two plans taken together: counts add up.
func (u usage) add(v usage) usage {
	if u == noUses {
		return v
	}
	if v == noUses {
		return u
	}
	var stack [stackCounts * countBytes]byte
	buf := stack[:0]
	for i := 0; i < len(u); i += countBytes {
		buf = binary.LittleEndian.AppendUint32(buf, u.at(i)+v.at(i))
	}
	return usage(buf)
}

// without is u with the candidate's count settled to zero.
func (u usage) without(ord int) usage {
	if u.count(ord) == 0 {
		return u
	}
	var stack [stackCounts * countBytes]byte
	buf := append(stack[:0], u...)
	binary.LittleEndian.PutUint32(buf[ord*countBytes:], 0)
	for _, b := range buf {
		if b != 0 {
			return usage(buf)
		}
	}
	return noUses
}

// describe renders u for error messages, by candidate ID.
func (o *Optimizer) describe(u usage) string {
	var sb strings.Builder
	for ord, c := range o.Cands {
		if n := u.count(ord); n != 0 {
			fmt.Fprintf(&sb, " CSE%d×%d", c.ID, n)
		}
	}
	return strings.TrimSpace(sb.String())
}
