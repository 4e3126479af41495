package parser

import "strings"

// SplitStatements splits a SQL source string into its individual
// statement texts on top-level semicolons. It reuses the lexer, so
// semicolons inside string literals or comments never split. The
// returned slices exclude the terminating semicolon; empty segments
// (e.g. trailing semicolons or blank input) are dropped.
func SplitStatements(src string) ([]string, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	var out []string
	start := 0
	flush := func(end int) {
		seg := strings.TrimSpace(src[start:end])
		if seg != "" {
			out = append(out, seg)
		}
	}
	for _, t := range toks {
		switch {
		case t.kind == tokSymbol && t.text == ";":
			flush(t.pos)
			start = t.pos + 1
		case t.kind == tokEOF:
			flush(t.pos)
		}
	}
	return out, nil
}

// shape renders src's tokens, as ParseShaped documents.
func shape(src string, toks []token) string {
	toks = toks[:len(toks)-1] // EOF
	for len(toks) > 0 && toks[len(toks)-1].kind == tokSymbol && toks[len(toks)-1].text == ";" {
		toks = toks[:len(toks)-1]
	}
	var b strings.Builder
	b.Grow(len(src))
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		if t.kind == tokString {
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(t.text, "'", "''"))
			b.WriteByte('\'')
			continue
		}
		b.WriteString(t.text)
	}
	return b.String()
}
