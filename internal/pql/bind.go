package pql

// Binding: before a query reads its first record, every name in it is
// resolved once — relations to slots, attributes to field indexes and
// kinds, comparison operators to opcodes — so evaluating a row touches
// no map, no catalog latch and no string. Rows stay encoded: a value is
// materialized only for a field the target list (tuple.Text.Field, into
// the answer's text) references; the predicate compares fields where they
// stand in the record.

import (
	"bytes"
	"cmp"
	"fmt"

	"corep/internal/catalog"
	"corep/internal/tuple"
)

// row is the executor's one row form: the encoded record each bound
// relation currently stands on. A record is a view into the pinned leaf
// of the scan or probe that produced it, valid until that operator moves
// on, so nothing downstream keeps one; what outlives the row is copied
// out of it, into a value or the answer's text.
type row struct {
	schemas [2]*tuple.Schema
	recs    [2][]byte
}

// col is a bound column: field idx of the record in slot.
type col struct {
	slot int
	idx  int
}

// pathSlot marks the path column of a path query, whose value is the
// current expansion's leaf rather than a field of a bound record.
const pathSlot = -1

// bound is a query bound to the catalog: its relations in slots, its
// predicate and target list resolved against their schemas, and the row
// the pipeline currently stands on.
type bound struct {
	row
	rels  [2]*catalog.Relation
	where *bexpr  // nil without a where clause
	nodes []bexpr // the predicate's nodes, allocated together
	lits  []byte  // the bytes of its string constants, one after the other
	// cols binds result column j; schema names and types the columns. Its
	// fields are fields, and schema is out once the target list is bound.
	cols   []col
	fields []tuple.Field
	out    tuple.Schema
	schema *tuple.Schema
	// keyed: rows report their Source, the key of the record in slot 0.
	keyed bool
	// pt and kids, in a path query, are the path target's index and the
	// position of the children attribute it starts from.
	pt, kids int
	// path is the current value of the path column (path queries).
	path tuple.Value
}

// col materializes result column j of the current row, for the answer
// whose text is text: a character value is staged there.
func (b *bound) col(j int, text *tuple.Text) (tuple.Value, error) {
	c := b.cols[j]
	if c.slot == pathSlot {
		return b.path, nil
	}
	return text.Field(b.schemas[c.slot], b.recs[c.slot], c.idx)
}

// colBytes is the body of byte column j of the current row, as a view
// into the record, valid while the row is.
func (b *bound) colBytes(j int) ([]byte, error) {
	c := b.cols[j]
	if c.slot == pathSlot {
		return b.path.Raw, nil
	}
	return tuple.FieldBytes(b.schemas[c.slot], b.recs[c.slot], c.idx)
}

// slotOf returns the slot of relation name, or -1.
func slotOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// keyed reports whether records of s lead with an integer key.
func keyed(s *tuple.Schema) bool {
	return len(s.Fields) > 0 && s.Fields[0].Kind == tuple.KInt
}

// bind resolves the relations q names (at most two) and binds its
// predicate into b, over whatever b held: the storage of the predicate's
// nodes and of the result columns is kept for the columns to come. A
// query over one relation reads it through a scan bounded to keyRange,
// and leaves out of its predicate what that scan holds (bindExpr). The
// target list is bound by the caller: its shape differs between plain
// and path queries.
func (b *bound) bind(cat *catalog.Catalog, q *Query, names []string) error {
	*b = bound{nodes: b.nodes[:0], lits: b.lits[:0], cols: b.cols[:0], fields: b.fields[:0]}
	for i, n := range names {
		rel, err := cat.Get(n)
		if err != nil {
			return err
		}
		b.rels[i], b.schemas[i] = rel, rel.Schema
	}
	if q.Where != nil {
		if n := countNodes(q.Where); cap(b.nodes) < n {
			b.nodes = make([]bexpr, 0, n)
		}
		var key *catalog.Relation
		if len(names) == 1 {
			key = b.rels[0]
		}
		b.where = b.bindExpr(q.Where, names, key)
	}
	return nil
}

// addCol appends result column c, named rel.f. A name the column had in
// the last query bound here is kept when it spells the same, so binding
// the same few target lists over and over allocates no names.
func (b *bound) addCol(rel string, f tuple.Field, c col) {
	name := b.nextField()
	if len(name) != len(rel)+1+len(f.Name) || name[:len(rel)] != rel || !tuple.Named(name, f.Name) {
		name = rel + "." + f.Name
	}
	b.fields[len(b.fields)-1] = tuple.Field{Name: name, Kind: f.Kind, Width: f.Width}
	b.cols = append(b.cols, c)
}

// addPathCol appends the path column of target t, an integer until the
// first reached leaf says what it is, under the name t is written as.
func (b *bound) addPathCol(t Target) {
	name := b.nextField()
	if !t.spells(name) {
		name = t.String()
	}
	b.fields[len(b.fields)-1] = tuple.Field{Name: name, Kind: tuple.KInt, Width: 8}
	b.cols = append(b.cols, col{slot: pathSlot})
}

// nextField extends b.fields by one and returns the name that field had
// in the last query bound here, "" if none.
func (b *bound) nextField() string {
	n := len(b.fields)
	if n < cap(b.fields) {
		b.fields = b.fields[:n+1]
	} else {
		b.fields = append(b.fields, tuple.Field{})
	}
	return b.fields[n].Name
}

// setSchema makes the result columns the result schema.
func (b *bound) setSchema() error {
	if err := checkColumns(b.fields); err != nil {
		return err
	}
	b.out.Reset(b.fields)
	b.schema = &b.out
	return nil
}

func countNodes(x Expr) int {
	switch v := x.(type) {
	case *BinBool:
		return 1 + countNodes(v.L) + countNodes(v.R)
	case *Not:
		return 1 + countNodes(v.E)
	}
	return 1
}

// Opcodes of a bound predicate node.
const (
	opEQ uint8 = iota
	opNE
	opLT
	opLE
	opGT
	opGE
	opAnd
	opOr
	opThen // a BinBool that is neither: L is evaluated, R decides
	opNot
)

// operand is a bound comparison operand: a column, or (slot < 0) the
// constant the query's own operand cst spells, a string one's bytes
// copied to lit.
type operand struct {
	col
	cst *Operand
	lit []byte
}

// bexpr is one node of a bound predicate.
type bexpr struct {
	op   uint8
	kind tuple.Kind // of a comparison's operands
	l, r *bexpr     // opAnd, opOr, opThen; opNot uses l
	a, b operand    // comparisons
	// err is what binding found wrong with this node: an unknown
	// attribute, operands of different kinds, an unknown operator. It is
	// reported when the node is first evaluated, not at bind time — a
	// query whose scan is empty, or whose and/or never reaches the node,
	// succeeds.
	err error
}

// bindExpr binds x into the next free node of b.nodes, which bind sized
// for the whole predicate: the slice never moves, so node pointers hold.
// Where key is not nil, x is a top-level conjunct of a predicate over a
// scan of key bounded to keyRange, and a comparison of key's key with an
// integer constant (keyBound) is the scan's to hold: it binds to nil.
func (b *bound) bindExpr(x Expr, names []string, key *catalog.Relation) *bexpr {
	var n bexpr
	switch v := x.(type) {
	case *BinBool:
		if v.Op != "and" {
			key = nil
		}
		l, r := b.bindExpr(v.L, names, key), b.bindExpr(v.R, names, key)
		if l == nil || r == nil {
			return cmp.Or(l, r)
		}
		n.op, n.l, n.r = opThen, l, r
		switch v.Op {
		case "and":
			n.op = opAnd
		case "or":
			n.op = opOr
		}
	case *Not:
		n.op, n.l = opNot, b.bindExpr(v.E, names, nil)
	case *Compare:
		if _, _, ok := keyBound(key, v); ok {
			return nil
		}
		var ak, bk tuple.Kind
		if n.a, ak, n.err = b.bindOperand(&v.L, names); n.err != nil {
			break
		}
		if n.b, bk, n.err = b.bindOperand(&v.R, names); n.err != nil {
			break
		}
		if ak != bk {
			n.err = fmt.Errorf("%w: type mismatch in %s (%v vs %v)", ErrExec, v, ak, bk)
			break
		}
		n.kind = ak
		switch v.Op {
		case "=":
			n.op = opEQ
		case "!=":
			n.op = opNE
		case "<":
			n.op = opLT
		case "<=":
			n.op = opLE
		case ">":
			n.op = opGT
		case ">=":
			n.op = opGE
		default:
			n.err = fmt.Errorf("%w: unknown operator %q", ErrExec, v.Op)
		}
	default:
		n.err = fmt.Errorf("%w: unknown expression node %T", ErrExec, x)
	}
	b.nodes = append(b.nodes, n)
	return &b.nodes[len(b.nodes)-1]
}

func (b *bound) bindOperand(o *Operand, names []string) (operand, tuple.Kind, error) {
	if !o.Column() {
		if o.IsStr {
			b.lits = append(b.lits, o.Str...)
			return operand{col: col{slot: -1}, cst: o, lit: b.lits[len(b.lits)-len(o.Str):]}, tuple.KString, nil
		}
		return operand{col: col{slot: -1}, cst: o}, tuple.KInt, nil
	}
	slot := slotOf(names, o.Rel)
	if slot < 0 {
		return operand{}, 0, fmt.Errorf("%w: relation %q not bound", ErrExec, o.Rel)
	}
	i := b.schemas[slot].Index(o.Attr)
	if i < 0 {
		return operand{}, 0, fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, o.Rel, o.Attr)
	}
	return operand{col: col{slot: slot, idx: i}}, b.schemas[slot].Fields[i].Kind, nil
}

// int is the operand's value in row r, for an integer comparison.
func (o *operand) int(r *row) (int64, error) {
	if o.slot < 0 {
		return o.cst.Num, nil
	}
	return tuple.Int(r.schemas[o.slot], r.recs[o.slot], o.idx)
}

// bytes is the operand's body in row r, for a character or byte
// comparison: a view into the record, or the constant's copy.
func (o *operand) bytes(r *row) ([]byte, error) {
	if o.slot < 0 {
		return o.lit, nil
	}
	return tuple.FieldBytes(r.schemas[o.slot], r.recs[o.slot], o.idx)
}

// eval evaluates the predicate on row r. and/or stop at the side that
// decides, so a node the row never reaches raises nothing.
func (x *bexpr) eval(r *row) (bool, error) {
	if x.err != nil {
		return false, x.err
	}
	switch x.op {
	case opAnd, opOr, opThen:
		l, err := x.l.eval(r)
		if err != nil {
			return false, err
		}
		if (x.op == opAnd && !l) || (x.op == opOr && l) {
			return l, nil
		}
		return x.r.eval(r)
	case opNot:
		inner, err := x.l.eval(r)
		return !inner && err == nil, err
	}
	c, err := x.compare(r)
	if err != nil {
		return false, err
	}
	switch x.op {
	case opEQ:
		return c == 0, nil
	case opNE:
		return c != 0, nil
	case opLT:
		return c < 0, nil
	case opLE:
		return c <= 0, nil
	case opGT:
		return c > 0, nil
	default:
		return c >= 0, nil
	}
}

// compare orders the operands of comparison x in row r, -1, 0 or +1 as
// tuple.Value.Compare does, reading a column where it stands in its
// record.
func (x *bexpr) compare(r *row) (int, error) {
	a, b := &x.a, &x.b
	if x.kind == tuple.KInt {
		av, aerr := a.int(r)
		bv, berr := b.int(r)
		return cmp.Compare(av, bv), cmp.Or(aerr, berr)
	}
	ab, aerr := a.bytes(r)
	bb, berr := b.bytes(r)
	return bytes.Compare(ab, bb), cmp.Or(aerr, berr)
}
