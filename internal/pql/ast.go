package pql

import (
	"fmt"
	"strconv"
	"strings"
)

// Query is a parsed retrieve statement.
type Query struct {
	Targets []Target
	Where   Expr // nil when absent
}

// Target is one entry of the target list: rel.attr, rel.all, or a
// multi-dot path rel.attr.seg… (e.g. group.members.name) that traverses
// children attributes — Attr is the first step, Path the rest.
type Target struct {
	Rel  string
	Attr string // "all" expands to every attribute
	// Path holds the segments after Attr for multi-dot targets; the last
	// segment names the attribute projected from the traversed
	// subobjects, the ones before it further children attributes.
	Path []string
}

// All reports whether the target is rel.all.
func (t Target) All() bool { return strings.EqualFold(t.Attr, "all") }

// Pathy reports whether the target is a multi-dot path.
func (t Target) Pathy() bool { return len(t.Path) > 0 }

// String renders the target as it was written.
func (t Target) String() string {
	if len(t.Path) == 0 {
		return t.Rel + "." + t.Attr
	}
	return t.Rel + "." + t.Attr + "." + strings.Join(t.Path, ".")
}

// Expr is a boolean where-clause expression.
type Expr interface {
	exprNode()
	String() string
}

// BinBool combines two boolean expressions with and/or.
type BinBool struct {
	Op   string // "and" | "or"
	L, R Expr
}

func (*BinBool) exprNode() {}

func (b *BinBool) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

func (*Not) exprNode() {}

func (n *Not) String() string { return fmt.Sprintf("not %s", n.E) }

// Compare is a comparison between two operands.
type Compare struct {
	Op   string // = != < <= > >=
	L, R Operand
}

func (*Compare) exprNode() {}

func (c *Compare) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// Operand is a column reference or a constant.
type Operand struct {
	// Column reference (Rel non-empty) …
	Rel  string
	Attr string
	// … or constant (exactly one of these meaningful when Rel == "").
	IsStr bool
	Str   string
	Num   int64
}

// Column reports whether the operand is a column reference.
func (o Operand) Column() bool { return o.Rel != "" }

func (o Operand) String() string {
	if o.Column() {
		return o.Rel + "." + o.Attr
	}
	if o.IsStr {
		return strconv.Quote(o.Str)
	}
	return strconv.FormatInt(o.Num, 10)
}

// Relations returns the distinct relation names a query references, in
// first-appearance order.
func (q *Query) Relations() []string {
	var out []string
	for _, t := range q.Targets {
		out = addRelation(out, t.Rel)
	}
	if q.Where != nil {
		out = exprRelations(out, q.Where)
	}
	return out
}

// addRelation appends name unless it is empty or already listed; a query
// names a handful of relations, so the list is its own set.
func addRelation(out []string, name string) []string {
	if name == "" {
		return out
	}
	for _, n := range out {
		if n == name {
			return out
		}
	}
	return append(out, name)
}

func exprRelations(out []string, e Expr) []string {
	switch v := e.(type) {
	case *BinBool:
		return exprRelations(exprRelations(out, v.L), v.R)
	case *Not:
		return exprRelations(out, v.E)
	case *Compare:
		return addRelation(addRelation(out, v.L.Rel), v.R.Rel)
	}
	return out
}

func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("retrieve (")
	for i, t := range q.Targets {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString(")")
	if q.Where != nil {
		b.WriteString(" where " + q.Where.String())
	}
	return b.String()
}

// Parse parses a retrieve statement.
func Parse(src string) (*Query, error) {
	p := parser{src: src}
	p.advance()
	q, err := p.query()
	if err == nil && p.tok.kind != tokEOF {
		err = fmt.Errorf("pql: trailing input at %s", p.tok)
	}
	if err != nil {
		// A character the lexer rejects anywhere in the statement is the
		// error to report, also when the grammar gave up before it.
		for p.lexErr == nil && p.tok.kind != tokEOF {
			p.advance()
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return q, nil
}

// parser reads tokens off src as the grammar asks for them, one token of
// lookahead in tok.
type parser struct {
	src string
	off int   // where the token after tok starts
	tok token // the lookahead
	// lexErr is the first lexing failure; the token stream reads as ended
	// from there on.
	lexErr error
}

func (p *parser) advance() {
	if p.lexErr != nil {
		return
	}
	p.tok, p.off, p.lexErr = lexAt(p.src, p.off)
	if p.lexErr != nil {
		p.tok = token{kind: tokEOF, pos: p.off}
	}
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	p.advance()
	return t
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("pql: expected %s, got %s", what, t)
	}
	return t, nil
}

func (p *parser) query() (*Query, error) {
	if !isKeyword(p.next(), "retrieve") {
		return nil, fmt.Errorf("pql: query must start with 'retrieve'")
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	q := &Query{}
	for {
		tgt, err := p.target()
		if err != nil {
			return nil, err
		}
		q.Targets = append(q.Targets, tgt)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	if isKeyword(p.peek(), "where") {
		p.next()
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	return q, nil
}

func (p *parser) target() (Target, error) {
	rel, err := p.expect(tokIdent, "relation name")
	if err != nil {
		return Target{}, err
	}
	if _, err := p.expect(tokDot, "'.'"); err != nil {
		return Target{}, err
	}
	attr, err := p.expect(tokIdent, "attribute name")
	if err != nil {
		return Target{}, err
	}
	t := Target{Rel: rel.text, Attr: attr.text}
	// Further '.' segments make a multi-dot path through children
	// attributes (group.members.name).
	for p.peek().kind == tokDot {
		p.next()
		seg, err := p.expect(tokIdent, "path segment")
		if err != nil {
			return Target{}, err
		}
		t.Path = append(t.Path, seg.text)
	}
	return t, nil
}

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for isKeyword(p.peek(), "or") {
		p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinBool{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for isKeyword(p.peek(), "and") {
		p.next()
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		l = &BinBool{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) primary() (Expr, error) {
	if isKeyword(p.peek(), "not") {
		p.next()
		e, err := p.primary()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	if p.peek().kind == tokLParen {
		p.next()
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	}
	l, err := p.operand()
	if err != nil {
		return nil, err
	}
	op, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return nil, err
	}
	r, err := p.operand()
	if err != nil {
		return nil, err
	}
	return &Compare{Op: op.text, L: l, R: r}, nil
}

func (p *parser) operand() (Operand, error) {
	t := p.next()
	switch t.kind {
	case tokIdent:
		if _, err := p.expect(tokDot, "'.' after relation name"); err != nil {
			return Operand{}, err
		}
		attr, err := p.expect(tokIdent, "attribute name")
		if err != nil {
			return Operand{}, err
		}
		return Operand{Rel: t.text, Attr: attr.text}, nil
	case tokNumber:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("pql: bad number %q", t.text)
		}
		return Operand{Num: n}, nil
	case tokString:
		return Operand{IsStr: true, Str: t.text}, nil
	default:
		return Operand{}, fmt.Errorf("pql: expected operand, got %s", t)
	}
}
