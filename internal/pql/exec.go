package pql

import (
	"errors"
	"fmt"
	"strings"

	"corep/internal/catalog"
	"corep/internal/object"
	"corep/internal/tuple"
)

// Result is a materialized query result.
type Result struct {
	Schema *tuple.Schema
	Tuples []tuple.Tuple
	// Sources identifies, for single-relation queries, the base tuple
	// each result row came from: (relation id, key). Callers that cache
	// query results use these to place invalidation locks. Empty for
	// joins.
	Sources []Source
}

// Source names the base tuple a result row was derived from.
type Source struct {
	RelID uint16
	Key   int64
}

// ErrExec reports query execution failures (unknown relations or
// attributes, type mismatches, unsupported shapes).
var ErrExec = errors.New("pql: execution error")

// Store is the database a query runs against.
type Store struct {
	// Cat names the relations and opens their scans.
	Cat *catalog.Catalog
	// View fetches the subobjects an OID list names: Cat itself, or a
	// view that knows of copies placed elsewhere.
	View ReadView
	// Touch, when non-nil, is told the identity of every object whose OID
	// list a path expands — the heat signal of adaptive clustering.
	Touch func(owner object.OID)
}

// Execute runs a parsed query against cat and materializes the result.
// Supported shapes — which cover the paper's procedural attributes — are
// single-relation selections, two-relation joins, and multi-dot path
// queries (one path target; see iter.go). It reads through the catalog.
func Execute(cat *catalog.Catalog, q *Query) (*Result, error) {
	return Store{Cat: cat, View: cat}.Execute(q)
}

// Execute runs a parsed query against st. This is the boundary where
// rows leave the executor: each is materialized here, field by field
// through tuple.DecodeField, and owns its strings and bytes.
func (st Store) Execute(q *Query) (*Result, error) {
	res := &Result{}
	b, err := run(st, q, ExecOpts{}, func(b *bound) error {
		t := make(tuple.Tuple, len(b.cols))
		for j := range t {
			v, err := b.col(j)
			if err != nil {
				return err
			}
			t[j] = v
		}
		res.Tuples = append(res.Tuples, t)
		if b.keyed {
			key, err := tuple.Key(b.schemas[0], b.recs[0])
			if err != nil {
				return err
			}
			res.Sources = append(res.Sources, Source{RelID: b.rels[0].ID, Key: key})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Schema = b.schema
	return res, nil
}

// run binds q once and streams its result rows to emit; the row emit
// sees is valid for that call only. It returns the bound query for its
// result schema, which a path query completes at the first reached leaf.
func run(st Store, q *Query, opts ExecOpts, emit func(*bound) error) (*bound, error) {
	for _, t := range q.Targets {
		if t.Pathy() {
			return runPath(st, q, opts, emit)
		}
	}
	names := q.Relations()
	switch len(names) {
	case 0:
		return nil, fmt.Errorf("%w: query references no relations", ErrExec)
	case 1:
		return runSingle(st.Cat, q, names, emit)
	case 2:
		return runJoin(st.Cat, q, names, emit)
	default:
		return nil, fmt.Errorf("%w: %d-relation queries not supported", ErrExec, len(names))
	}
}

// outSchema builds the result schema from the target list and binds each
// result column to (slot of its relation in names, field index).
// Attributes are named rel.attr so join results stay unambiguous.
func outSchema(cat *catalog.Catalog, names []string, targets []Target) (*tuple.Schema, []col, error) {
	var fields []tuple.Field
	var cols []col
	for _, t := range targets {
		rel, err := cat.Get(t.Rel)
		if err != nil {
			return nil, nil, err
		}
		slot := slotOf(names, t.Rel)
		if t.All() {
			for i, f := range rel.Schema.Fields {
				fields = append(fields, tuple.Field{Name: t.Rel + "." + f.Name, Kind: f.Kind, Width: f.Width})
				cols = append(cols, col{slot: slot, idx: i})
			}
			continue
		}
		i := rel.Schema.Index(t.Attr)
		if i < 0 {
			return nil, nil, fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, t.Rel, t.Attr)
		}
		f := rel.Schema.Fields[i]
		fields = append(fields, tuple.Field{Name: t.Rel + "." + f.Name, Kind: f.Kind, Width: f.Width})
		cols = append(cols, col{slot: slot, idx: i})
	}
	schema, err := resultSchema(fields)
	return schema, cols, err
}

// resultSchema is tuple.NewSchema for result columns, which a target
// list may name twice: an error here, where NewSchema panics.
func resultSchema(fields []tuple.Field) (*tuple.Schema, error) {
	for i, f := range fields {
		for _, g := range fields[:i] {
			if f.Name == g.Name {
				return nil, fmt.Errorf("%w: target list names %s twice", ErrExec, f.Name)
			}
		}
	}
	return tuple.NewSchema(fields...), nil
}

// ResultSchema returns the schema a query's result will have, without
// executing it. Callers that cache materialized results use it to
// decode cached rows.
func ResultSchema(cat *catalog.Catalog, q *Query) (*tuple.Schema, error) {
	s, _, err := outSchema(cat, q.Relations(), q.Targets)
	return s, err
}

// keyRange extracts a [lo,hi] bound on rel's key attribute (field 0)
// from a conjunctive predicate, for B-tree range scans. Only top-level
// conjunctions contribute; anything else returns the full range.
func keyRange(rel *catalog.Relation, x Expr) (lo, hi int64) {
	r := keyBounds{lo: -1 << 62, hi: 1 << 62}
	if keyed(rel.Schema) {
		r.narrow(rel.Name, rel.Schema.Fields[0].Name, x)
	}
	return r.lo, r.hi
}

type keyBounds struct{ lo, hi int64 }

// narrow tightens the bounds by every comparison of relName.keyAttr
// with an integer constant that e's top-level conjunction holds.
func (r *keyBounds) narrow(relName, keyAttr string, e Expr) {
	switch v := e.(type) {
	case *BinBool:
		if v.Op == "and" {
			r.narrow(relName, keyAttr, v.L)
			r.narrow(relName, keyAttr, v.R)
		}
	case *Compare:
		col, cst, op := v.L, v.R, v.Op
		if !col.Column() && cst.Column() {
			col, cst = cst, col
			// Mirror the operator when the column is on the right.
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		if !col.Column() || cst.Column() || cst.IsStr {
			return
		}
		if col.Rel != relName || col.Attr != keyAttr {
			return
		}
		switch op {
		case "=":
			r.lo, r.hi = max(r.lo, cst.Num), min(r.hi, cst.Num)
		case "<":
			r.hi = min(r.hi, cst.Num-1)
		case "<=":
			r.hi = min(r.hi, cst.Num)
		case ">":
			r.lo = max(r.lo, cst.Num+1)
		case ">=":
			r.lo = max(r.lo, cst.Num)
		}
	}
}

// runSingle runs a single-relation selection: scan → filter → emit,
// pulled record by record. The scan is a bounded B-tree range scan when
// the predicate bounds the key.
func runSingle(cat *catalog.Catalog, q *Query, names []string, emit func(*bound) error) (*bound, error) {
	b, err := bind(cat, q, names)
	if err != nil {
		return nil, err
	}
	if b.schema, b.cols, err = outSchema(cat, names, q.Targets); err != nil {
		return nil, err
	}
	b.keyed = keyed(b.schemas[0])
	scan, err := openScan(b.rels[0], q.Where)
	if err != nil {
		return nil, err
	}
	defer scan.Close()
	for {
		rec, ok, err := scan.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return b, nil
		}
		b.recs[0] = rec
		if err := b.filterEmit(emit); err != nil {
			return nil, err
		}
	}
}

// pass evaluates the predicate, if there is one, on the current row.
func (b *bound) pass() (bool, error) {
	if b.where == nil {
		return true, nil
	}
	return b.where.eval(&b.row)
}

// filterEmit hands the current row to emit if it passes the predicate.
func (b *bound) filterEmit(emit func(*bound) error) error {
	if ok, err := b.pass(); err != nil || !ok {
		return err
	}
	return emit(b)
}

// runJoin runs a two-relation join: a full scan of the outer relation
// and, per outer record, an index probe of the inner B-tree when the
// predicate equates its key, a full inner scan otherwise.
func runJoin(cat *catalog.Catalog, q *Query, names []string, emit func(*bound) error) (*bound, error) {
	b, err := bind(cat, q, names)
	if err != nil {
		return nil, err
	}
	if b.schema, b.cols, err = outSchema(cat, names, q.Targets); err != nil {
		return nil, err
	}
	if q.Where == nil {
		return nil, fmt.Errorf("%w: join without a where clause (cartesian products rejected)", ErrExec)
	}
	outer, inner := b.rels[0], b.rels[1]
	probe := indexProbeCol(inner, outer, q.Where)
	oscan, err := openScan(outer, nil)
	if err != nil {
		return nil, err
	}
	defer oscan.Close()
	for {
		rec, ok, err := oscan.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return b, nil
		}
		b.recs[0] = rec
		if probe != nil {
			key, err := tuple.DecodeField(outer.Schema, rec, probe.outerIdx)
			if err != nil {
				return nil, err
			}
			if key.Kind == tuple.KInt {
				// A key with no partner — or a probe that fails any other
				// way — joins nothing; what the partner's row raises is the
				// query's error.
				var rowErr error
				_ = inner.Tree.View(key.Int, func(payload []byte) error {
					if rowErr = tuple.Check(inner.Schema, payload); rowErr == nil {
						b.recs[1] = payload
						rowErr = b.filterEmit(emit)
					}
					return rowErr
				})
				if rowErr != nil {
					return nil, rowErr
				}
				continue
			}
		}
		if err := b.scanInner(inner, emit); err != nil {
			return nil, err
		}
	}
}

// scanInner pairs the current outer record with every inner record.
func (b *bound) scanInner(inner *catalog.Relation, emit func(*bound) error) error {
	iscan, err := openScan(inner, nil)
	if err != nil {
		return err
	}
	defer iscan.Close()
	for {
		rec, ok, err := iscan.Next()
		if err != nil || !ok {
			return err
		}
		b.recs[1] = rec
		if err := b.filterEmit(emit); err != nil {
			return err
		}
	}
}

// probeSpec says: for each outer tuple, probe inner's B-tree with the
// outer attribute at outerIdx.
type probeSpec struct {
	outerIdx int
}

// indexProbeCol detects a top-level equality inner.key = outer.attr that
// lets the join run as an index nested loop on the inner B-tree.
func indexProbeCol(inner, outer *catalog.Relation, x Expr) *probeSpec {
	if inner.Kind != catalog.KindBTree || len(inner.Schema.Fields) == 0 || inner.Schema.Fields[0].Kind != tuple.KInt {
		return nil
	}
	keyAttr := inner.Schema.Fields[0].Name
	var found *probeSpec
	var walk func(Expr)
	walk = func(e Expr) {
		if found != nil {
			return
		}
		switch v := e.(type) {
		case *BinBool:
			if v.Op == "and" {
				walk(v.L)
				walk(v.R)
			}
		case *Compare:
			if v.Op != "=" || !v.L.Column() || !v.R.Column() {
				return
			}
			a, b := v.L, v.R
			if strings.EqualFold(a.Rel, outer.Name) {
				a, b = b, a
			}
			if strings.EqualFold(a.Rel, inner.Name) && strings.EqualFold(a.Attr, keyAttr) &&
				strings.EqualFold(b.Rel, outer.Name) {
				if i := outer.Schema.Index(b.Attr); i >= 0 {
					found = &probeSpec{outerIdx: i}
				}
			}
		}
	}
	walk(x)
	return found
}
