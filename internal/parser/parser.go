package parser

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a semicolon-separated batch of statements.
func Parse(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(src, toks)
}

// ParseShaped parses src like Parse and also returns its shape, rendered
// from the same tokens: the key under which the server pools the plans of
// one query shape. Tokens are one space apart, keywords are lower-cased as
// the lexer emits them, string literals are re-quoted with each inner quote
// doubled so no literal can spell another token sequence, and trailing
// semicolons are dropped; whitespace and comments vanish. Two sources share
// a shape exactly when they lex to the same tokens.
func ParseShaped(src string) ([]Statement, string, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, "", err
	}
	stmts, err := parseTokens(src, toks)
	if err != nil {
		return nil, "", err
	}
	return stmts, shape(src, toks), nil
}

func parseTokens(src string, toks []token) ([]Statement, error) {
	p := &parser{toks: toks, src: src}
	var out []Statement
	for {
		for p.acceptSymbol(";") {
		}
		if p.peek().kind == tokEOF {
			break
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.acceptSymbol(";") && p.peek().kind != tokEOF {
			return nil, p.errorf("expected ';' or end of input")
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty statement batch")
	}
	return out, nil
}

// ParseSelect parses a single SELECT statement.
func ParseSelect(src string) (*SelectStmt, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected a single statement, got %d", len(stmts))
	}
	sel, ok := stmts[0].(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("expected a SELECT statement")
	}
	return sel, nil
}

type parser struct {
	toks []token
	pos  int
	src  string

	// depth counts nested parseExpr/parseSelect activations. Recursive
	// descent means attacker-controlled nesting (parentheses, subqueries)
	// consumes Go stack; past maxDepth we return an error instead of
	// risking an unrecoverable stack exhaustion.
	depth int
}

// maxDepth bounds expression and query nesting. Deep enough for any real
// workload, shallow enough that the recursive-descent stack stays small.
const maxDepth = 200

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxDepth {
		return fmt.Errorf("parse error: nesting deeper than %d", maxDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...interface{}) error {
	t := p.peek()
	near := "end of input"
	if t.kind != tokEOF {
		end := t.pos + 20
		if end > len(p.src) {
			end = len(p.src)
		}
		near = fmt.Sprintf("%q", p.src[t.pos:end])
	}
	return fmt.Errorf("syntax error near %s: %s", near, fmt.Sprintf(format, args...))
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", strings.ToUpper(kw))
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q", sym)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if t := p.peek(); t.kind == tokIdent {
		p.next()
		return t.text, nil
	}
	return "", p.errorf("expected identifier")
}

func (p *parser) parseStatement() (Statement, error) {
	switch t := p.peek(); {
	case t.kind == tokKeyword && (t.text == "select" || t.text == "with"):
		return p.parseSelect()
	case t.kind == tokKeyword && t.text == "create":
		return p.parseCreateView()
	default:
		return nil, p.errorf("expected SELECT, WITH, or CREATE MATERIALIZED VIEW")
	}
}

func (p *parser) parseCreateView() (Statement, error) {
	p.next() // create
	if err := p.expectKeyword("materialized"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("view"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("as"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &CreateViewStmt{Name: name, Select: sel}, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	var ctes []CTE
	if p.acceptKeyword("with") {
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("as"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			inner, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			ctes = append(ctes, CTE{Name: name, Select: inner})
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{With: ctes}
	sel.Distinct = p.acceptKeyword("distinct")

	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, ref)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if p.acceptKeyword("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("desc") {
				item.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("limit") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected number after LIMIT")
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n <= 0 {
			return nil, p.errorf("invalid LIMIT %q", t.text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("as") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent {
		// Bare alias: "expr name".
		p.next()
		item.Alias = t.text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.acceptKeyword("as") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent {
		p.next()
		ref.Alias = t.text
	}
	return ref, nil
}

// Expression grammar (precedence climbing):
//   expr    := orExpr
//   orExpr  := andExpr (OR andExpr)*
//   andExpr := notExpr (AND notExpr)*
//   notExpr := NOT notExpr | cmpExpr
//   cmpExpr := addExpr ((= <> < <= > >=) addExpr | BETWEEN addExpr AND addExpr | IN (...))?
//   addExpr := mulExpr ((+|-) mulExpr)*
//   mulExpr := unary ((*|/) unary)*
//   unary   := - unary | primary
//   primary := literal | colref | func(args) | ( expr ) | ( select ... )

func (p *parser) parseExpr() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseOr()
}

func (p *parser) parseOr() (Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Node, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Node, error) {
	// Iterative so a long NOT chain cannot grow the Go stack.
	n := 0
	for p.acceptKeyword("not") {
		n++
	}
	arg, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for ; n > 0; n-- {
		arg = &UnaryOp{Op: "not", Arg: arg}
	}
	return arg, nil
}

func (p *parser) parseCmp() (Node, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokSymbol {
		switch t.text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinOp{Op: t.text, L: l, R: r}, nil
		}
	}
	negate := false
	if p.peekKeyword("not") {
		// Lookahead for NOT BETWEEN / NOT IN / NOT LIKE.
		save := p.pos
		p.next()
		if p.peekKeyword("between") || p.peekKeyword("in") || p.peekKeyword("like") {
			negate = true
		} else {
			p.pos = save
			return l, nil
		}
	}
	if p.acceptKeyword("like") {
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		node := Node(&BinOp{Op: "like", L: l, R: pat})
		if negate {
			node = &UnaryOp{Op: "not", Arg: node}
		}
		return node, nil
	}
	if p.acceptKeyword("between") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Between{Expr: l, Lo: lo, Hi: hi, Negate: negate}, nil
	}
	if p.acceptKeyword("in") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var vals []Node
		for {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InList{Expr: l, Vals: vals, Negate: negate}, nil
	}
	return l, nil
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) parseAdd() (Node, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMul() (Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Node, error) {
	// Iterative so a long minus chain cannot grow the Go stack.
	n := 0
	for t := p.peek(); t.kind == tokSymbol && t.text == "-"; t = p.peek() {
		p.next()
		n++
	}
	arg, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for ; n > 0; n-- {
		arg = &UnaryOp{Op: "-", Arg: arg}
	}
	return arg, nil
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		return &NumLit{Text: t.text, Float: strings.Contains(t.text, ".")}, nil
	case tokString:
		p.next()
		return &StrLit{Val: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "true":
			p.next()
			return &BoolLit{Val: true}, nil
		case "false":
			p.next()
			return &BoolLit{Val: false}, nil
		case "null":
			p.next()
			return &NullLit{}, nil
		}
		return nil, p.errorf("unexpected keyword %s in expression", strings.ToUpper(t.text))
	case tokIdent:
		p.next()
		name := t.text
		// Function call?
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			p.next()
			fc := &FuncCall{Name: strings.ToLower(name)}
			if p.acceptSymbol("*") {
				fc.Star = true
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if !p.acceptSymbol(")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, arg)
					if !p.acceptSymbol(",") {
						break
					}
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Qualified column?
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColRef{Qualifier: name, Name: col}, nil
		}
		return &ColRef{Name: name}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			if p.peekKeyword("select") {
				sel, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &Subquery{Select: sel}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token in expression")
}
