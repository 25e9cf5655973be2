package pql

// Binding: before a query reads its first record, every name in it is
// resolved once — relations to slots, attributes to field indexes and
// kinds, comparison operators to opcodes — so evaluating a row touches
// no map, no catalog latch and no string. Rows stay encoded: a value is
// materialized, through tuple.DecodeField, only for a field the
// predicate or the target list references.

import (
	"fmt"

	"corep/internal/catalog"
	"corep/internal/tuple"
)

// row is the executor's one row form: the encoded record each bound
// relation currently stands on. A record is a view — into the pinned
// leaf of the scan or probe that produced it, or into a heap scan's copy
// — valid until that operator moves on, so nothing downstream keeps one;
// what outlives the row is copied out of it by DecodeField.
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

func (r *row) value(c col) (tuple.Value, error) {
	return tuple.DecodeField(r.schemas[c.slot], r.recs[c.slot], c.idx)
}

// bound is a query bound to the catalog: its relations in slots, its
// predicate and target list resolved against their schemas, and the row
// the pipeline currently stands on.
type bound struct {
	row
	rels  [2]*catalog.Relation
	where *bexpr  // nil without a where clause
	nodes []bexpr // the predicate's nodes, allocated together
	// cols binds result column j; schema names and types the columns.
	cols   []col
	schema *tuple.Schema
	// keyed: rows report their Source, the key of the record in slot 0.
	keyed bool
	// path is the current value of the path column (path queries).
	path tuple.Value
}

// col materializes result column j of the current row.
func (b *bound) col(j int) (tuple.Value, error) {
	c := b.cols[j]
	if c.slot == pathSlot {
		return b.path, nil
	}
	return b.value(c)
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
// predicate. The target list is bound by the caller: its shape differs
// between plain and path queries.
func bind(cat *catalog.Catalog, q *Query, names []string) (*bound, error) {
	b := &bound{}
	for i, n := range names {
		rel, err := cat.Get(n)
		if err != nil {
			return nil, err
		}
		b.rels[i], b.schemas[i] = rel, rel.Schema
	}
	if q.Where != nil {
		b.nodes = make([]bexpr, 0, countNodes(q.Where))
		b.where = b.bindExpr(q.Where, names)
	}
	return b, nil
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
// constant the query's own operand cst spells.
type operand struct {
	col
	cst *Operand
}

// bexpr is one node of a bound predicate.
type bexpr struct {
	op   uint8
	l, r *bexpr  // opAnd, opOr, opThen; opNot uses l
	a, b operand // comparisons
	// err is what binding found wrong with this node: an unknown
	// attribute, operands of different kinds, an unknown operator. It is
	// reported when the node is first evaluated, not at bind time — a
	// query whose scan is empty, or whose and/or never reaches the node,
	// succeeds.
	err error
}

// bindExpr binds x into the next free node of b.nodes, which bind sized
// for the whole predicate: the slice never moves, so node pointers hold.
func (b *bound) bindExpr(x Expr, names []string) *bexpr {
	b.nodes = append(b.nodes, bexpr{})
	n := &b.nodes[len(b.nodes)-1]
	switch v := x.(type) {
	case *BinBool:
		n.op, n.l, n.r = opThen, b.bindExpr(v.L, names), b.bindExpr(v.R, names)
		switch v.Op {
		case "and":
			n.op = opAnd
		case "or":
			n.op = opOr
		}
	case *Not:
		n.op, n.l = opNot, b.bindExpr(v.E, names)
	case *Compare:
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
	return n
}

func (b *bound) bindOperand(o *Operand, names []string) (operand, tuple.Kind, error) {
	if !o.Column() {
		k := tuple.KInt
		if o.IsStr {
			k = tuple.KString
		}
		return operand{col: col{slot: -1}, cst: o}, k, nil
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

func (o *operand) value(r *row) (tuple.Value, error) {
	if o.slot >= 0 {
		return r.value(o.col)
	}
	if o.cst.IsStr {
		return tuple.StrVal(o.cst.Str), nil
	}
	return tuple.IntVal(o.cst.Num), nil
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
	av, err := x.a.value(r)
	if err != nil {
		return false, err
	}
	bv, err := x.b.value(r)
	if err != nil {
		return false, err
	}
	c := av.Compare(bv)
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
