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

// shapeOf is ParseShaped's shape for sources that parse.
func shapeOf(t *testing.T, src string) string {
	t.Helper()
	_, s, err := ParseShaped(src)
	if err != nil {
		t.Fatalf("ParseShaped(%q): %v", src, err)
	}
	return s
}

// TestShapeKey pins the normalizer: whitespace collapses, literals are
// verbatim, trailing semicolons drop, keyword case folds.
func TestShapeKey(t *testing.T) {
	if got, want := shapeOf(t, "SELECT a  FROM t\nwhere x = 'it''s' ;;"), "select a from t where x = 'it''s'"; got != want {
		t.Errorf("shape = %q, want %q", got, want)
	}
	if shapeOf(t, "select  a\nfrom t;") != shapeOf(t, "select a from t") {
		t.Error("whitespace/semicolon variants should share a shape")
	}
	if shapeOf(t, "select 'a  b' from t") == shapeOf(t, "select 'a b' from t") {
		t.Error("literal-internal whitespace must be significant")
	}
	if shapeOf(t, "select 'it''s  ok' from t") == shapeOf(t, "select 'it''s ok' from t") {
		t.Error("escaped-quote literal internals must be significant")
	}
	if shapeOf(t, "select a from t") == shapeOf(t, "select a from u") {
		t.Error("different tables must differ in shape")
	}
	if shapeOf(t, "select a from t; select b from u") == shapeOf(t, "select a from t") {
		t.Error("multi-statement shape must include every statement")
	}
	if shapeOf(t, "SELECT a FROM t") != shapeOf(t, "select a from t") {
		t.Error("keyword case must not distinguish shapes")
	}
	if shapeOf(t, "select a from t") == shapeOf(t, "select 'a' from t") {
		t.Error("a string literal must not share a shape with an identifier it spells")
	}
}

// TestShapeKeyComments pins comment-aware normalization. Regression: a
// newline both separates tokens and terminates a `--` line comment, so
// collapsing it blindly merged "…t --c where a=1" (WHERE swallowed by the
// comment) with "…t\n--c\nwhere a=1" (WHERE active) into one shape — and a
// plan-cache hit then executed the wrong plan.
func TestShapeKeyComments(t *testing.T) {
	if shapeOf(t, "select a from t --c where a=1") == shapeOf(t, "select a from t\n--c\nwhere a=1") {
		t.Error("comment-swallowed WHERE must not share a shape with an active WHERE")
	}
	if shapeOf(t, "select a from t\n--c\nwhere a=1") != shapeOf(t, "select a from t where a=1") {
		t.Error("a stripped comment must not distinguish shapes")
	}
	if shapeOf(t, "select a from t --c where a=1") != shapeOf(t, "select a from t") {
		t.Error("a comment running to end of input must vanish from the shape")
	}
	if shapeOf(t, "select a--c\nfrom t") != shapeOf(t, "select a from t") {
		t.Error("a comment adjacent to a token must still separate tokens")
	}
	if shapeOf(t, "select '--x' from t") == shapeOf(t, "select '' from t") {
		t.Error("-- inside a string literal is not a comment")
	}
}
