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

// spells reports whether name is what String returns, without building
// it.
func (t Target) spells(name string) bool {
	rest, ok := strings.CutPrefix(name, t.Rel)
	for i := -1; ok && i < len(t.Path); i++ {
		seg := t.Attr
		if i >= 0 {
			seg = t.Path[i]
		}
		if rest, ok = strings.CutPrefix(rest, "."); ok {
			rest, ok = strings.CutPrefix(rest, seg)
		}
	}
	return ok && rest == ""
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
func (q *Query) Relations() []string { return q.appendRelations(nil) }

// appendRelations is Relations appended to out.
func (q *Query) appendRelations(out []string) []string {
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
func Parse(src string) (*Query, error) { return parseFresh(new(parseScratch), src) }

// parseScratch is the storage a statement is parsed into: the query, its
// path segments, its expression nodes and its identifiers. A reader that
// parses one statement after another — an expansion meeting stored query
// after stored query, a lent Query scratch — keeps one and parses each
// into it in turn, which hands the nodes of the last parse out again:
// only a statement bigger than any before it allocates. The query a
// parse returns lives until the next one.
type parseScratch struct {
	q    Query
	segs []string // the targets' paths, one after the other
	bins []BinBool
	nots []Not
	cmps []Compare
	// idents[k] is the k-th identifier of the last parse. A parse from
	// bytes takes it again for its own k-th identifier when it spells the
	// same, so a stored query read off a page allocates no names once a
	// query of its shape has been parsed here.
	idents []string
	// The shape of the last statement parse read, while that parse
	// succeeded: a copy of its text, its tokens there, and the number
	// constants of q in token order. hit reports that the last parse
	// found that shape again and only rewrote the constants.
	text  []byte
	toks  []token
	slots []*int64
	hit   bool
}

// parse parses src into sc like parseFresh, but a statement with the
// shape of the last one parsed here — the same tokens, apart from the
// values of its numbers — is not parsed again: the last query has its
// number constants rewritten in place, and sc.hit reports it.
func parse[S string | []byte](sc *parseScratch, src S) (*Query, error) {
	if sc.hit = reshape(sc, src); sc.hit {
		return &sc.q, nil
	}
	q, err := parseFresh(sc, src)
	sc.text, sc.toks, sc.slots = append(sc.text[:0], src...), sc.toks[:0], sc.slots[:0]
	for off := 0; err == nil; {
		t, next, _ := lexAt(sc.text, off)
		if sc.toks = append(sc.toks, t); t.kind == tokEOF {
			sc.slots = numberSlots(sc.slots, q.Where)
			break
		}
		off = next
	}
	return q, err
}

// reshape reports whether src has the shape recorded in sc, writing its
// numbers into the recorded constants as it goes: a src that turns out
// to differ leaves some rewritten, and is parsed afresh.
func reshape[S string | []byte](sc *parseScratch, src S) bool {
	off, k := 0, 0
	for _, want := range sc.toks {
		t, next, err := lexAt(src, off)
		if err != nil || t.kind != want.kind {
			return false
		}
		if t.kind == tokNumber {
			n, ok := number(src[t.lo:t.hi])
			if !ok {
				return false
			}
			*sc.slots[k], k = n, k+1
		} else if string(src[t.lo:t.hi]) != string(sc.text[want.lo:want.hi]) {
			return false
		}
		off = next
	}
	return len(sc.toks) > 0
}

// numberSlots appends where each number constant of x sits, left before
// right: the order the parser read them in.
func numberSlots(out []*int64, x Expr) []*int64 {
	switch v := x.(type) {
	case *BinBool:
		return numberSlots(numberSlots(out, v.L), v.R)
	case *Not:
		return numberSlots(out, v.E)
	case *Compare:
		for _, o := range [...]*Operand{&v.L, &v.R} {
			if !o.Column() && !o.IsStr {
				out = append(out, &o.Num)
			}
		}
	}
	return out
}

// parseFresh parses src into sc, from a string or straight from the
// bytes of a stored children value: no text is copied but what a string
// constant holds and an identifier the last parse did not have at its
// position.
func parseFresh[S string | []byte](sc *parseScratch, src S) (*Query, error) {
	sc.q = Query{Targets: sc.q.Targets[:0]}
	sc.segs = sc.segs[:0]
	sc.bins, sc.nots, sc.cmps = sc.bins[:0], sc.nots[:0], sc.cmps[:0]
	p := parser[S]{src: src, sc: sc}
	p.advance()
	q, err := p.query()
	if err == nil && p.tok.kind != tokEOF {
		err = fmt.Errorf("pql: trailing input at %s", p.describe(p.tok))
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
type parser[S string | []byte] struct {
	src S
	off int   // where the token after tok starts
	tok token // the lookahead
	// lexErr is the first lexing failure; the token stream reads as ended
	// from there on.
	lexErr error
	sc     *parseScratch // where the query and its nodes are built
	nident int           // identifiers read so far
}

// grab hands out the next element of *s, zeroed. A full slice is
// replaced by a fresh one twice its size, never grown in place: the
// elements handed out so far are pointed to and must stay where they are.
func grab[T any](s *[]T) *T {
	if len(*s) == cap(*s) {
		*s = make([]T, 0, max(2, 2*cap(*s)))
	}
	*s = (*s)[:len(*s)+1]
	e := &(*s)[len(*s)-1]
	var zero T
	*e = zero
	return e
}

func (p *parser[S]) binBool(op string, l, r Expr) Expr {
	n := grab(&p.sc.bins)
	*n = BinBool{Op: op, L: l, R: r}
	return n
}

func (p *parser[S]) not(e Expr) Expr {
	n := grab(&p.sc.nots)
	n.E = e
	return n
}

func (p *parser[S]) compare(op string, l, r Operand) Expr {
	n := grab(&p.sc.cmps)
	*n = Compare{Op: op, L: l, R: r}
	return n
}

func (p *parser[S]) advance() {
	if p.lexErr != nil {
		return
	}
	p.tok, p.off, p.lexErr = lexAt(p.src, p.off)
	if p.lexErr != nil {
		p.tok = token{kind: tokEOF}
	}
}

func (p *parser[S]) peek() token { return p.tok }

func (p *parser[S]) next() token {
	t := p.tok
	p.advance()
	return t
}

// text is t's text, where it stands in the source.
func (p *parser[S]) text(t token) S { return p.src[t.lo:t.hi] }

// describe renders t for an error message.
func (p *parser[S]) describe(t token) string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", string(p.text(t)))
}

// isKeyword reports whether t is the identifier kw, in any case.
func (p *parser[S]) isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && keyword(p.text(t), kw)
}

// ident is identifier t as a string: the one the last parse into the
// scratch read at the same position when it spells the same — the idiom
// of bound.addCol — else a copy, remembered there for the next parse.
func (p *parser[S]) ident(t token) string {
	text, ids, k := p.text(t), &p.sc.idents, p.nident
	p.nident++
	if k < len(*ids) && (*ids)[k] == string(text) {
		return (*ids)[k]
	}
	s := string(text)
	if k < len(*ids) {
		(*ids)[k] = s
	} else {
		*ids = append(*ids, s)
	}
	return s
}

// op is comparison operator t as one of operators.
func (p *parser[S]) op(t token) string {
	for _, op := range operators {
		if string(p.text(t)) == op {
			return op
		}
	}
	panic("pql: lexer made an operator token of " + string(p.text(t)))
}

func (p *parser[S]) expect(kind tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("pql: expected %s, got %s", what, p.describe(t))
	}
	return t, nil
}

func (p *parser[S]) query() (*Query, error) {
	if !p.isKeyword(p.next(), "retrieve") {
		return nil, fmt.Errorf("pql: query must start with 'retrieve'")
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	q := &p.sc.q
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
	if p.isKeyword(p.peek(), "where") {
		p.next()
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	return q, nil
}

func (p *parser[S]) target() (Target, error) {
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
	t := Target{Rel: p.ident(rel), Attr: p.ident(attr)}
	// Further '.' segments make a multi-dot path through children
	// attributes (group.members.name). They land in the scratch's
	// segment list; the path is its own stretch of it, capped, so the
	// next target's segments never write into it.
	base := len(p.sc.segs)
	for p.peek().kind == tokDot {
		p.next()
		seg, err := p.expect(tokIdent, "path segment")
		if err != nil {
			return Target{}, err
		}
		p.sc.segs = append(p.sc.segs, p.ident(seg))
	}
	if n := len(p.sc.segs); n > base {
		t.Path = p.sc.segs[base:n:n]
	}
	return t, nil
}

func (p *parser[S]) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.isKeyword(p.peek(), "or") {
		p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = p.binBool("or", l, r)
	}
	return l, nil
}

func (p *parser[S]) andExpr() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.isKeyword(p.peek(), "and") {
		p.next()
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		l = p.binBool("and", l, r)
	}
	return l, nil
}

func (p *parser[S]) primary() (Expr, error) {
	if p.isKeyword(p.peek(), "not") {
		p.next()
		e, err := p.primary()
		if err != nil {
			return nil, err
		}
		return p.not(e), nil
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
	return p.compare(p.op(op), l, r), nil
}

func (p *parser[S]) operand() (Operand, error) {
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
		return Operand{Rel: p.ident(t), Attr: p.ident(attr)}, nil
	case tokNumber:
		n, ok := number(p.text(t))
		if !ok {
			return Operand{}, fmt.Errorf("pql: bad number %s", p.describe(t))
		}
		return Operand{Num: n}, nil
	case tokString:
		return Operand{IsStr: true, Str: string(p.text(t))}, nil
	default:
		return Operand{}, fmt.Errorf("pql: expected operand, got %s", p.describe(t))
	}
}
