package pql

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"corep/internal/catalog"
	"corep/internal/object"
	"corep/internal/tuple"
)

// Result is a materialized query result.
type Result struct {
	Schema *tuple.Schema
	Tuples []tuple.Tuple
	// Sources identifies, for single-relation queries run with
	// ExecuteSources, the base tuple each result row came from: (relation
	// id, key). Callers that cache query results use these to place
	// invalidation locks. Empty for joins and for Execute.
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
// rows leave the executor: the values are collected (Collect), so their
// strings are substrings of the result's one text and their bytes their
// own, and the rows are cut out of the one slab that makes; the result
// schema is a copy of the one the query was bound to.
func (st Store) Execute(q *Query) (*Result, error) { return st.execute(q, false) }

// ExecuteSources is Execute with the result's Sources filled in.
func (st Store) ExecuteSources(q *Query) (*Result, error) { return st.execute(q, true) }

func (st Store) execute(q *Query, sources bool) (*Result, error) {
	c := lend()
	defer c.release()
	res := &Result{}
	if sources {
		c.sources = &res.Sources
	}
	b, rows, err := c.run(st, q)
	if err != nil {
		return nil, err
	}
	res.Schema = tuple.NewSchema(slices.Clone(b.schema.Fields)...)
	res.Tuples = rows
	return res, nil
}

// Query parses src and runs it like Execute, in state lent for the call,
// and returns the result's column names and rows. Nothing returned
// refers to that state.
func (st Store) Query(src string) (cols []string, rows []tuple.Tuple, err error) {
	return query(st, src)
}

// QueryBytes is Query for a statement held in bytes — a stored query
// read off its page — which is parsed where it stands, not copied.
func (st Store) QueryBytes(src []byte) (cols []string, rows []tuple.Tuple, err error) {
	return query(st, src)
}

func query[S string | []byte](st Store, src S) (cols []string, rows []tuple.Tuple, err error) {
	c := lend()
	defer c.release()
	q, err := parse(&c.parse, src)
	if err != nil {
		return nil, nil, err
	}
	b, rows, err := c.run(st, q)
	if err != nil {
		return nil, nil, err
	}
	return b.schema.Names(), rows, nil
}

// call is the state one Store call runs in, lent by calls and given
// back when the call returns, so a call allocates its answer and nothing
// else once one as big has run before it: the scratch of the query it
// runs, what collecting the answer needs (take, collect bound once; the
// values so far, row after row; the text their strings are staged in),
// and the expanders of its path queries, one per stored-query depth
// (ExecOpts.depth): a stored path query nested in another expands in a
// slot of its own, never in the one of the query that met it.
type call struct {
	scratch
	take func(*bound) error
	vals []tuple.Value
	text tuple.Text
	// sources, when set, takes the Source of every keyed row.
	sources *[]Source
	paths   [maxPathDepth]*Expander
}

var calls = sync.Pool{New: func() any {
	c := new(call)
	c.take = c.collect
	return c
}}

// lend takes a call's state from calls.
func lend() *call { return calls.Get().(*call) }

// release gives c back to the pool holding no value and no result.
func (c *call) release() {
	c.b.path, c.sources = tuple.Value{}, nil
	calls.Put(c)
}

// run runs q in c and returns the bound query, for its result schema,
// and the rows, cut out of one slab.
func (c *call) run(st Store, q *Query) (*bound, []tuple.Tuple, error) {
	b, err := run(st, q, ExecOpts{call: c}, &c.scratch, c.take)
	slab, err := c.answer(c.vals, err)
	if err != nil {
		return b, nil, err
	}
	return b, cutRows(slab, len(b.cols)), nil
}

// cutRows cuts an answer's slab, rows of w values one after the other,
// into its rows, each capped at its end: the one place an answer's
// layout is known.
func cutRows(slab []tuple.Value, w int) []tuple.Tuple {
	if len(slab) == 0 {
		return nil
	}
	rows := make([]tuple.Tuple, len(slab)/w)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// NestedRows decodes the inline members of a value-based children value,
// records of schema s written by object.EncodeNested, as an answer: rows
// cut from one slab whose strings are one text. Every member is
// framing-checked before it is read.
func NestedRows(s *tuple.Schema, nested []byte) ([]tuple.Tuple, error) {
	c := lend()
	defer c.release()
	vals := c.vals[:0]
	err := object.EachNested(nested, func(rec []byte) error {
		if err := tuple.Check(s, rec); err != nil {
			return err
		}
		for i := range s.Fields {
			v, err := c.text.Field(s, rec, i)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		return nil
	})
	slab, err := c.answer(vals, err)
	if err != nil {
		return nil, err
	}
	return cutRows(slab, len(s.Fields)), nil
}

// collect appends the current row's values, and its Source if asked.
func (c *call) collect(b *bound) error {
	for j := range b.cols {
		v, err := b.col(j, &c.text)
		if err != nil {
			return err
		}
		c.vals = append(c.vals, v)
	}
	if c.sources != nil && b.keyed {
		key, err := tuple.Key(b.schemas[0], b.recs[0])
		if err != nil {
			return err
		}
		*c.sources = append(*c.sources, Source{RelID: b.rels[0].ID, Key: key})
	}
	return nil
}

// Collect is where an answer is built over st: it lends the call's
// state, and hands fill an expander over st, which stages the character
// values it projects in the answer's text (tuple.Text), and the answer's
// buffer to append values to. It returns one exact-size copy of the
// values whose strings are substrings of one exact-size copy of the text.
// An answer is two allocations, whatever it holds, and is its caller's
// alone; keeping any one of its strings keeps the whole text. No value
// leaves staged. The expander is the call's: fill must not keep it.
func (st Store) Collect(fill func(x *Expander, buf []tuple.Value) ([]tuple.Value, error)) ([]tuple.Value, error) {
	c := lend()
	defer c.release()
	return c.answer(fill(c.expander(st, ExecOpts{call: c}, nil), c.vals[:0]))
}

// answer ends the answer collected in vals, c's buffer, by the work
// that returned err. It returns one exact-size copy of the values whose
// strings are substrings of one exact-size copy of c's text, and empties
// both, so the pool pins no value's strings; after an error it drops
// the buffer with what it holds and empties the text.
func (c *call) answer(vals []tuple.Value, err error) ([]tuple.Value, error) {
	if err != nil {
		c.vals = nil
		c.text.Resolve(nil)
		return nil, err
	}
	var out []tuple.Value
	if len(vals) > 0 {
		out = make([]tuple.Value, len(vals))
		copy(out, vals)
	}
	c.text.Resolve(out)
	clear(vals)
	c.vals = vals[:0]
	return out, nil
}

// scratch is the storage one query runs in: its parse, its relation
// list, the bound query and the scan of its first relation. Execute and
// Query run each query in a lent one (call). An Expander keeps one per
// expansion depth and runs every stored query it meets at that depth in
// it, one after the other, so a stored query no bigger than one run
// there before allocates nothing here.
type scratch struct {
	parse parseScratch
	names []string
	b     bound
	scan  relScan
	// reusable: names and b hold the binding of parse's query, which the
	// last run here made and finished without error.
	reusable bool
}

// run binds q once, in sc, and streams its result rows to emit; the row
// emit sees is valid for that call only. It returns the bound query for
// its result schema, which a path query completes at the first reached
// leaf; both live as long as sc is not reused. A query parsed into sc
// with the last one's shape (parse) keeps that one's binding, which
// points at the constants, unless that run failed, another query ran
// here since, or the catalog now names other relations.
func run(st Store, q *Query, opts ExecOpts, sc *scratch, emit func(*bound) error) (b *bound, err error) {
	parsed := q == &sc.parse.q
	reuse := parsed && sc.parse.hit && sc.reusable
	for i := 0; reuse && i < len(sc.names); i++ {
		rel, gerr := st.Cat.Get(sc.names[i]) // another database's, or created again
		reuse = gerr == nil && rel == sc.b.rels[i]
	}
	defer func() { sc.reusable = parsed && err == nil }()
	for _, t := range q.Targets {
		if t.Pathy() {
			return runPath(st, q, opts, sc, emit, reuse)
		}
	}
	if !reuse {
		sc.names = q.appendRelations(sc.names[:0])
	}
	switch len(sc.names) {
	case 0:
		return nil, fmt.Errorf("%w: query references no relations", ErrExec)
	case 1:
		return runSingle(st.Cat, q, sc, emit, reuse)
	case 2:
		return runJoin(st.Cat, q, sc, emit)
	default:
		return nil, fmt.Errorf("%w: %d-relation queries not supported", ErrExec, len(sc.names))
	}
}

// outSchema binds the target list: each result column to (slot of its
// relation in names, field index), and the result schema over them.
// Attributes are named rel.attr so join results stay unambiguous.
func (b *bound) outSchema(cat *catalog.Catalog, names []string, targets []Target) error {
	for _, t := range targets {
		rel, err := cat.Get(t.Rel)
		if err != nil {
			return err
		}
		slot := slotOf(names, t.Rel)
		if t.All() {
			for i, f := range rel.Schema.Fields {
				b.addCol(t.Rel, f, col{slot: slot, idx: i})
			}
			continue
		}
		i := rel.Schema.Index(t.Attr)
		if i < 0 {
			return fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, t.Rel, t.Attr)
		}
		b.addCol(t.Rel, rel.Schema.Fields[i], col{slot: slot, idx: i})
	}
	return b.setSchema()
}

// checkColumns refuses a target list that names a result column twice:
// an error here, where tuple.NewSchema panics.
func checkColumns(fields []tuple.Field) error {
	for i, f := range fields {
		for _, g := range fields[:i] {
			if f.Name == g.Name {
				return fmt.Errorf("%w: target list names %s twice", ErrExec, f.Name)
			}
		}
	}
	return nil
}

// ResultSchema returns the schema a query's result will have, without
// executing it. Callers that cache materialized results use it to
// decode cached rows.
func ResultSchema(cat *catalog.Catalog, q *Query) (*tuple.Schema, error) {
	b := new(bound)
	if err := b.outSchema(cat, q.Relations(), q.Targets); err != nil {
		return nil, err
	}
	return b.schema, nil
}

// keyRange extracts a [lo,hi] bound on rel's key attribute (field 0)
// from a conjunctive predicate, for B-tree range scans: lo > hi when no
// key can satisfy it. Only top-level conjunctions contribute; anything
// else leaves the whole int64 range.
func keyRange(rel *catalog.Relation, x Expr) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	switch v := x.(type) {
	case *BinBool:
		if v.Op == "and" {
			l1, h1 := keyRange(rel, v.L)
			l2, h2 := keyRange(rel, v.R)
			return max(l1, l2), min(h1, h2)
		}
	case *Compare:
		op, n, ok := keyBound(rel, v)
		switch {
		case !ok:
		case op == "=":
			return n, n
		case op == "<" && n == math.MinInt64, op == ">" && n == math.MaxInt64:
			return 1, 0 // nothing lies beyond the end of the range
		case op == "<":
			hi = n - 1
		case op == "<=":
			hi = n
		case op == ">":
			lo = n + 1
		case op == ">=":
			lo = n
		}
	}
	return lo, hi
}

// keyBound reports whether c compares rel's key attribute (none when rel
// is nil) with an integer constant, and how: the operator as if the key stood on its
// left, and the constant. A scan bounded to keyRange holds every such
// top-level conjunct.
func keyBound(rel *catalog.Relation, c *Compare) (op string, n int64, ok bool) {
	col, cst, op := c.L, c.R, c.Op
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
	if rel == nil || !keyed(rel.Schema) || !col.Column() || cst.Column() || cst.IsStr ||
		col.Rel != rel.Name || col.Attr != rel.Schema.Fields[0].Name || op == "!=" {
		return "", 0, false
	}
	return op, cst.Num, true
}

// runSingle runs a single-relation selection: scan → filter → emit,
// pulled record by record. The scan is a bounded B-tree range scan when
// the predicate bounds the key, and the filter is what the bound leaves
// of the predicate. With reuse, sc holds q's binding already.
func runSingle(cat *catalog.Catalog, q *Query, sc *scratch, emit func(*bound) error, reuse bool) (*bound, error) {
	b := &sc.b
	if !reuse {
		if err := b.bind(cat, q, sc.names); err != nil {
			return nil, err
		}
		if err := b.outSchema(cat, sc.names, q.Targets); err != nil {
			return nil, err
		}
		b.keyed = keyed(b.schemas[0])
	}
	scan := &sc.scan
	if err := scan.open(b.rels[0], q.Where); err != nil {
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
func runJoin(cat *catalog.Catalog, q *Query, sc *scratch, emit func(*bound) error) (*bound, error) {
	b := &sc.b
	if err := b.bind(cat, q, sc.names); err != nil {
		return nil, err
	}
	if err := b.outSchema(cat, sc.names, q.Targets); err != nil {
		return nil, err
	}
	if q.Where == nil {
		return nil, fmt.Errorf("%w: join without a where clause (cartesian products rejected)", ErrExec)
	}
	outer, inner := b.rels[0], b.rels[1]
	probe := indexProbeCol(inner, outer, q.Where)
	oscan := &sc.scan
	if err := oscan.open(outer, nil); err != nil {
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
	var iscan relScan
	if err := iscan.open(inner, nil); err != nil {
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
	if len(inner.Schema.Fields) == 0 || inner.Schema.Fields[0].Kind != tuple.KInt {
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
