package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/csedb"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/sqltypes"
)

// canonStmt is one statement's result in comparable form: the column header
// and every row as canonical value texts, in result order. approx marks the
// columns that hold floats: two plans may add the same numbers in a different
// order, so those compare within a tolerance and every other column exactly.
// orderCols indexes the columns named by the statement's ORDER BY (empty when
// it has none, or orders by something that is not an output column).
type canonStmt struct {
	cols      string
	rows      [][]string
	approx    []bool
	orderCols []int
}

func canonDatum(d sqltypes.Datum) string {
	if d.Kind() == sqltypes.KindFloat {
		return strconv.FormatFloat(d.Float(), 'g', -1, 64)
	}
	return d.String()
}

func canonResult(res []*exec.StatementResult, order [][]string) []canonStmt {
	out := make([]canonStmt, len(res))
	for i, sr := range res {
		cs := canonStmt{cols: strings.Join(sr.Names, ","), rows: make([][]string, len(sr.Rows)), approx: make([]bool, len(sr.Names))}
		for j, row := range sr.Rows {
			vals := make([]string, len(row))
			for k, d := range row {
				vals[k] = canonDatum(d)
				if d.Kind() == sqltypes.KindFloat && k < len(cs.approx) {
					cs.approx[k] = true
				}
			}
			cs.rows[j] = vals
		}
		if i < len(order) {
			cs.orderCols = columnIndexes(sr.Names, order[i])
		}
		out[i] = cs
	}
	return out
}

// canonJSON converts the statements of a /v1/query response body. JSON does
// not say which numbers are floats, and the body does not say what the
// statement ordered by: the oracle's side of the comparison knows both.
func canonJSON(body []byte) ([]canonStmt, error) {
	var resp struct {
		Statements []struct {
			Columns []string `json:"columns"`
			Rows    [][]any  `json:"rows"`
		} `json:"statements"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return nil, err
	}
	out := make([]canonStmt, len(resp.Statements))
	for i, st := range resp.Statements {
		cs := canonStmt{cols: strings.Join(st.Columns, ","), rows: make([][]string, len(st.Rows))}
		for j, row := range st.Rows {
			vals := make([]string, len(row))
			for k, v := range row {
				switch x := v.(type) {
				case nil:
					vals[k] = "NULL"
				case json.Number:
					vals[k] = x.String()
				case bool:
					vals[k] = strconv.FormatBool(x)
				case string:
					vals[k] = x
				default:
					vals[k] = fmt.Sprint(x)
				}
			}
			cs.rows[j] = vals
		}
		out[i] = cs
	}
	return out, nil
}

func columnIndexes(names, want []string) []int {
	var idx []int
	for _, w := range want {
		found := -1
		for i, n := range names {
			if strings.EqualFold(n, w) {
				found = i
				break
			}
		}
		if found < 0 {
			return nil
		}
		idx = append(idx, found)
	}
	return idx
}

// orderColumns returns, per statement, the output-column names its ORDER BY
// sorts on; nil for a statement without one.
func orderColumns(stmts []parser.Statement) [][]string {
	out := make([][]string, len(stmts))
	for i, st := range stmts {
		sel, ok := st.(*parser.SelectStmt)
		if !ok {
			continue
		}
		for _, it := range sel.OrderBy {
			ref, ok := it.Expr.(*parser.ColRef)
			if !ok {
				out[i] = nil
				break
			}
			out[i] = append(out[i], ref.Name)
		}
	}
	return out
}

// sameValue compares one field. Floats agree when they are within a
// billionth of each other, relative to their size: summation order moves the
// last few bits, and rounding both sides to fixed decimals instead would call
// 0.12345 and 0.12344999 different.
func sameValue(a, b string, approx bool) bool {
	if a == b {
		return true
	}
	if !approx {
		return false
	}
	x, errX := strconv.ParseFloat(a, 64)
	y, errY := strconv.ParseFloat(b, 64)
	if errX != nil || errY != nil {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	return math.Abs(x-y) <= 1e-9*scale
}

func sameRow(a, b []string, approx []bool, only []int) bool {
	if len(a) != len(b) {
		return false
	}
	if only != nil {
		for _, c := range only {
			if c >= len(a) || !sameValue(a[c], b[c], c < len(approx) && approx[c]) {
				return false
			}
		}
		return true
	}
	for c := range a {
		if !sameValue(a[c], b[c], c < len(approx) && approx[c]) {
			return false
		}
	}
	return true
}

// diffCanon compares a result with the oracle's. Rows compare as multisets;
// where the statement has an ORDER BY, the sequence of its sort-key values
// must match as well (rows tied on the key may legitimately swap). It returns
// "" when the two agree and otherwise says where they first differ.
func diffCanon(got, want []canonStmt) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d statements, oracle has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.cols != w.cols {
			return fmt.Sprintf("statement %d: columns %q, oracle %q", i+1, g.cols, w.cols)
		}
		if len(g.rows) != len(w.rows) {
			return fmt.Sprintf("statement %d: %d rows, oracle %d", i+1, len(g.rows), len(w.rows))
		}
		if len(w.orderCols) > 0 {
			for r := range g.rows {
				if !sameRow(g.rows[r], w.rows[r], w.approx, w.orderCols) {
					return fmt.Sprintf("statement %d row %d: sort key of %q, oracle %q", i+1, r+1, g.rows[r], w.rows[r])
				}
			}
		}
		// Rows are bucketed by their exact columns; inside a bucket (one row,
		// unless group keys repeat) each row must find an unclaimed partner.
		exactKey := func(row []string) string {
			var sb strings.Builder
			for c, v := range row {
				if c < len(w.approx) && w.approx[c] {
					continue
				}
				sb.WriteString(v)
				sb.WriteByte('\t')
			}
			return sb.String()
		}
		buckets := make(map[string][][]string, len(w.rows))
		for _, row := range w.rows {
			k := exactKey(row)
			buckets[k] = append(buckets[k], row)
		}
		for _, row := range g.rows {
			k := exactKey(row)
			found := -1
			for j, cand := range buckets[k] {
				if sameRow(row, cand, w.approx, nil) {
					found = j
					break
				}
			}
			if found < 0 {
				return fmt.Sprintf("statement %d: row %q is not in the oracle's result", i+1, row)
			}
			b := buckets[k]
			buckets[k] = append(b[:found:found], b[found+1:]...)
		}
	}
	return ""
}

// oracleRun executes sql on db's current data the simplest way the engine
// can: CSE off, one worker, row-at-a-time plane, no result cache. This is the
// repository's reference path (difftest's "nocse-seq-row" cell); every
// benchmarked result must equal it.
func oracleRun(ctx context.Context, db *csedb.DB, sql string) ([]canonStmt, error) {
	stmts, err := parser.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("oracle parse: %w", err)
	}
	batch, err := logical.BuildBatch(stmts, db.Catalog())
	if err != nil {
		return nil, fmt.Errorf("oracle bind: %w", err)
	}
	m, err := memo.Build(batch)
	if err != nil {
		return nil, fmt.Errorf("oracle memo: %w", err)
	}
	off := core.DefaultSettings()
	off.EnableCSE = false
	out, err := core.Optimize(m, off)
	if err != nil {
		return nil, fmt.Errorf("oracle optimize: %w", err)
	}
	res, _, err := exec.RunWithOptions(ctx, out.Result, batch.Metadata, db.Store(), exec.Options{Parallelism: 1, NoColPlane: true})
	if err != nil {
		return nil, fmt.Errorf("oracle exec: %w", err)
	}
	return canonResult(res, orderColumns(stmts)), nil
}

// sqlOrder parses sql only to learn its ORDER BY columns.
func sqlOrder(sql string) [][]string {
	stmts, err := parser.Parse(sql)
	if err != nil {
		return nil
	}
	return orderColumns(stmts)
}
