package parser

import (
	"reflect"
	"testing"
)

func TestSplitStatements(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"select 1", []string{"select 1"}},
		{"select 1;", []string{"select 1"}},
		{"select 1; select 2;\n\nselect 3", []string{"select 1", "select 2", "select 3"}},
		{"select ';' from t; select 2", []string{"select ';' from t", "select 2"}},
		{"select 1 -- trailing ; comment\n; select 2", []string{"select 1 -- trailing ; comment", "select 2"}},
		{";;;", nil},
		{"  \n ", nil},
		{"with q as (select 1) select * from q;", []string{"with q as (select 1) select * from q"}},
	}
	for _, c := range cases {
		got, err := SplitStatements(c.src)
		if err != nil {
			t.Fatalf("SplitStatements(%q): %v", c.src, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitStatements(%q) = %#v, want %#v", c.src, got, c.want)
		}
	}
	// Each split piece must itself parse when the whole parses.
	src := "select c_custkey from customer where c_name = 'a;b';\nselect o_orderkey from orders"
	parts, err := SplitStatements(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %#v", parts)
	}
	for _, p := range parts {
		if _, err := Parse(p); err != nil {
			t.Errorf("part %q does not parse: %v", p, err)
		}
	}
}

func TestSplitStatementsLexError(t *testing.T) {
	if _, err := SplitStatements("select 'unterminated"); err == nil {
		t.Fatal("want lex error")
	}
}

// shape is Shape for sources that lex.
func shape(t *testing.T, src string) string {
	t.Helper()
	s, err := Shape(src)
	if err != nil {
		t.Fatalf("Shape(%q): %v", src, err)
	}
	return s
}

// TestShapeKey pins the normalizer: whitespace collapses, literals are
// verbatim, trailing semicolons drop, keyword case folds.
func TestShapeKey(t *testing.T) {
	if shape(t, "select  a\nfrom t;") != shape(t, "select a from t") {
		t.Error("whitespace/semicolon variants should share a shape")
	}
	if shape(t, "select 'a  b' from t") == shape(t, "select 'a b' from t") {
		t.Error("literal-internal whitespace must be significant")
	}
	if shape(t, "select 'it''s  ok' from t") == shape(t, "select 'it''s ok' from t") {
		t.Error("escaped-quote literal internals must be significant")
	}
	if shape(t, "select a from t") == shape(t, "select a from u") {
		t.Error("different tables must differ in shape")
	}
	if shape(t, "select a from t; select b from u") == shape(t, "select a from t") {
		t.Error("multi-statement shape must include every statement")
	}
	if shape(t, "SELECT a FROM t") != shape(t, "select a from t") {
		t.Error("keyword case must not distinguish shapes")
	}
	if shape(t, "select a from t") == shape(t, "select 'a' from t") {
		t.Error("a string literal must not share a shape with an identifier it spells")
	}
}

// TestShapeKeyComments pins comment-aware normalization. Regression: a
// newline both separates tokens and terminates a `--` line comment, so
// collapsing it blindly merged "…t --c where a=1" (WHERE swallowed by the
// comment) with "…t\n--c\nwhere a=1" (WHERE active) into one shape — and a
// plan-cache hit then executed the wrong plan.
func TestShapeKeyComments(t *testing.T) {
	if shape(t, "select a from t --c where a=1") == shape(t, "select a from t\n--c\nwhere a=1") {
		t.Error("comment-swallowed WHERE must not share a shape with an active WHERE")
	}
	if shape(t, "select a from t\n--c\nwhere a=1") != shape(t, "select a from t where a=1") {
		t.Error("a stripped comment must not distinguish shapes")
	}
	if shape(t, "select a from t --c where a=1") != shape(t, "select a from t") {
		t.Error("a comment running to end of input must vanish from the shape")
	}
	if shape(t, "select a--c\nfrom t") != shape(t, "select a from t") {
		t.Error("a comment adjacent to a token must still separate tokens")
	}
	if shape(t, "select '--x' from t") == shape(t, "select '' from t") {
		t.Error("-- inside a string literal is not a comment")
	}
}
