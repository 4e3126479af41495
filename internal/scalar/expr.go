package scalar

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqltypes"
)

// Op enumerates scalar operators.
type Op uint8

// Scalar operator kinds.
const (
	OpConst Op = iota // literal constant
	OpCol             // column reference

	// Comparisons (binary).
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Boolean connectives.
	OpAnd // n-ary
	OpOr  // n-ary
	OpNot // unary

	// OpLike is SQL LIKE with % and _ wildcards (binary: expr LIKE pattern).
	OpLike

	// Arithmetic (binary).
	OpAdd
	OpSub
	OpMul
	OpDiv

	// OpAgg is a reference to an aggregate function. Aggregate nodes appear
	// only in raw SELECT/HAVING lists; plan normalization hoists them into
	// GroupBy operators and replaces them with OpCol references.
	OpAgg

	// OpSubquery references an uncorrelated scalar subquery by index into
	// the batch metadata's subquery list (the Col field carries the index).
	// The executor evaluates each subquery once and substitutes its value.
	OpSubquery
)

// AggKind enumerates the supported (decomposable) aggregate functions.
type AggKind uint8

// Aggregate function kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggCountStar
	AggMin
	AggMax
	AggAvg
	// AggSum0 is a sum that is 0, not NULL, over no rows: how partial counts
	// add up to a count. The optimizer introduces it when it combines
	// partial aggregates; SQL text cannot name it.
	AggSum0
)

// String returns the SQL name of the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggCountStar:
		return "count(*)"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggSum0:
		return "sum0"
	default:
		return fmt.Sprintf("agg(%d)", uint8(a))
	}
}

// Expr is a node in a scalar expression tree. Expressions are immutable once
// built; all transformations construct new nodes.
type Expr struct {
	Op    Op
	Const sqltypes.Datum // OpConst payload
	Col   ColID          // OpCol payload
	Agg   AggKind        // OpAgg payload
	Args  []*Expr        // children
}

// Constructors.

// Const returns a literal expression.
func Const(d sqltypes.Datum) *Expr { return &Expr{Op: OpConst, Const: d} }

// ConstInt returns an integer literal expression.
func ConstInt(v int64) *Expr { return Const(sqltypes.NewInt(v)) }

// ConstFloat returns a float literal expression.
func ConstFloat(v float64) *Expr { return Const(sqltypes.NewFloat(v)) }

// ConstString returns a string literal expression.
func ConstString(v string) *Expr { return Const(sqltypes.NewString(v)) }

// Col returns a column reference expression.
func Col(c ColID) *Expr { return &Expr{Op: OpCol, Col: c} }

// Cmp returns the comparison a <op> b.
func Cmp(op Op, a, b *Expr) *Expr {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
	default:
		panic(fmt.Sprintf("Cmp with non-comparison op %d", op))
	}
	return &Expr{Op: op, Args: []*Expr{a, b}}
}

// Eq returns a = b.
func Eq(a, b *Expr) *Expr { return Cmp(OpEq, a, b) }

// Arith returns the arithmetic expression a <op> b.
func Arith(op Op, a, b *Expr) *Expr {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv:
	default:
		panic(fmt.Sprintf("Arith with non-arithmetic op %d", op))
	}
	return &Expr{Op: op, Args: []*Expr{a, b}}
}

// Not returns NOT a.
func Not(a *Expr) *Expr { return &Expr{Op: OpNot, Args: []*Expr{a}} }

// Like returns a LIKE pattern.
func Like(a, pattern *Expr) *Expr { return &Expr{Op: OpLike, Args: []*Expr{a, pattern}} }

// Agg returns an aggregate function reference; arg is nil for count(*).
func Agg(kind AggKind, arg *Expr) *Expr {
	e := &Expr{Op: OpAgg, Agg: kind}
	if arg != nil {
		e.Args = []*Expr{arg}
	}
	return e
}

// SubqueryRef returns a reference to scalar subquery idx.
func SubqueryRef(idx int) *Expr { return &Expr{Op: OpSubquery, Col: ColID(idx)} }

// HasSubquery reports whether e contains a scalar subquery reference.
func (e *Expr) HasSubquery() bool {
	if e == nil {
		return false
	}
	if e.Op == OpSubquery {
		return true
	}
	for _, a := range e.Args {
		if a.HasSubquery() {
			return true
		}
	}
	return false
}

// True is the constant TRUE predicate; a nil filter also means TRUE.
var True = Const(sqltypes.NewBool(true))

// False is the constant FALSE predicate.
var False = Const(sqltypes.NewBool(false))

// IsTrue reports whether e is the literal TRUE (or nil).
func IsTrue(e *Expr) bool {
	return e == nil || (e.Op == OpConst && e.Const.Kind() == sqltypes.KindBool && e.Const.Bool())
}

// IsFalse reports whether e is the literal FALSE.
func IsFalse(e *Expr) bool {
	return e != nil && e.Op == OpConst && e.Const.Kind() == sqltypes.KindBool && !e.Const.Bool()
}

// And returns the conjunction of the arguments, flattening nested ANDs and
// dropping TRUE operands. And() with no live operands returns TRUE.
func And(args ...*Expr) *Expr {
	flat := make([]*Expr, 0, len(args))
	for _, a := range args {
		switch {
		case IsTrue(a):
		case a.Op == OpAnd:
			flat = append(flat, a.Args...)
		default:
			flat = append(flat, a)
		}
	}
	switch len(flat) {
	case 0:
		return True
	case 1:
		return flat[0]
	}
	return &Expr{Op: OpAnd, Args: flat}
}

// Or returns the disjunction of the arguments, flattening nested ORs. A TRUE
// operand collapses the whole disjunction to TRUE. Or() with no live operands
// returns FALSE.
func Or(args ...*Expr) *Expr {
	flat := make([]*Expr, 0, len(args))
	for _, a := range args {
		switch {
		case IsTrue(a):
			return True
		case IsFalse(a):
		case a != nil && a.Op == OpOr:
			flat = append(flat, a.Args...)
		default:
			flat = append(flat, a)
		}
	}
	switch len(flat) {
	case 0:
		return False
	case 1:
		return flat[0]
	}
	return &Expr{Op: OpOr, Args: flat}
}

// Conjuncts splits e on top-level ANDs. TRUE yields an empty slice.
func Conjuncts(e *Expr) []*Expr {
	if IsTrue(e) {
		return nil
	}
	if e.Op != OpAnd {
		return []*Expr{e}
	}
	out := make([]*Expr, 0, len(e.Args))
	for _, a := range e.Args {
		out = append(out, Conjuncts(a)...)
	}
	return out
}

// Cols returns the set of columns referenced anywhere in e.
func (e *Expr) Cols() ColSet {
	var s ColSet
	e.collectCols(&s)
	return s
}

func (e *Expr) collectCols(s *ColSet) {
	if e == nil {
		return
	}
	if e.Op == OpCol {
		s.Add(e.Col)
	}
	for _, a := range e.Args {
		a.collectCols(s)
	}
}

// HasAgg reports whether e contains an aggregate function reference.
func (e *Expr) HasAgg() bool {
	if e == nil {
		return false
	}
	if e.Op == OpAgg {
		return true
	}
	for _, a := range e.Args {
		if a.HasAgg() {
			return true
		}
	}
	return false
}

// IsColEqCol reports whether e is an equality between two distinct columns,
// returning them when so. These conjuncts define equijoin edges.
func (e *Expr) IsColEqCol() (ColID, ColID, bool) {
	if e != nil && e.Op == OpEq && len(e.Args) == 2 &&
		e.Args[0].Op == OpCol && e.Args[1].Op == OpCol &&
		e.Args[0].Col != e.Args[1].Col {
		return e.Args[0].Col, e.Args[1].Col, true
	}
	return 0, 0, false
}

// Remap returns a copy of e with every column reference c replaced by m[c].
// Columns absent from m are kept unchanged.
func (e *Expr) Remap(m map[ColID]ColID) *Expr {
	if e == nil {
		return nil
	}
	if e.Op == OpCol {
		if to, ok := m[e.Col]; ok {
			return Col(to)
		}
		return e
	}
	if len(e.Args) == 0 {
		return e
	}
	args := make([]*Expr, len(e.Args))
	changed := false
	for i, a := range e.Args {
		args[i] = a.Remap(m)
		if args[i] != a {
			changed = true
		}
	}
	if !changed {
		return e
	}
	out := *e
	out.Args = args
	return &out
}

// Fingerprint returns a deterministic encoding of the expression, used for
// memo deduplication and predicate equality tests. Structurally identical
// expressions have equal fingerprints.
func (e *Expr) Fingerprint() string {
	var sb strings.Builder
	e.encode(&sb)
	return sb.String()
}

// encode appends without fmt: candidate generation fingerprints every
// predicate of every pairwise merge, so this is hot on large batches.
func (e *Expr) encode(sb *strings.Builder) {
	if e == nil {
		sb.WriteString("T")
		return
	}
	switch e.Op {
	case OpConst:
		sb.WriteByte('#')
		sb.WriteString(strconv.Itoa(int(e.Const.Kind())))
		sb.WriteByte(':')
		sb.WriteString(e.Const.String())
	case OpCol:
		sb.WriteByte('@')
		sb.WriteString(strconv.Itoa(int(e.Col)))
	case OpAgg:
		sb.WriteString(e.Agg.String())
		sb.WriteByte('(')
		for _, a := range e.Args {
			a.encode(sb)
		}
		sb.WriteByte(')')
	case OpSubquery:
		sb.WriteString("$sq")
		sb.WriteString(strconv.Itoa(int(e.Col)))
	default:
		sb.WriteString(strconv.Itoa(int(e.Op)))
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			a.encode(sb)
		}
		sb.WriteByte(')')
	}
}

// Equivalent reports whether a and b are structurally identical.
func Equivalent(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return IsTrue(a) && IsTrue(b)
	}
	return a.Fingerprint() == b.Fingerprint()
}
