package pql

// Streaming execution: query pipelines are composed from pull-based
// row iterators (scan → filter → expand → project) so a planner can
// swap an operator — the traversal used to expand a multi-dot path, the
// scan used to drive a selection — without the executor materializing
// temporaries between stages. Only the final Result is materialized.

import (
	"encoding/binary"
	"fmt"
	"strings"

	"corep/internal/btree"
	"corep/internal/catalog"
	"corep/internal/object"
	"corep/internal/storage"
	"corep/internal/tuple"
)

// Traversal enumerates the expansion operators a multi-dot path step
// can run as. Both produce rows in identical (OID-list) order, so they
// are plan-equivalent by construction; only their I/O differs.
type Traversal uint8

// Expansion operators.
const (
	// TraversalProbe fetches each subobject with its own root-to-leaf
	// index descent — DFS-flavored, cheap for small fan-outs.
	TraversalProbe Traversal = iota
	// TraversalBatch fetches the whole OID list in one page-ordered
	// batch — BFS-flavored, amortizing page reads across the fan-out.
	TraversalBatch
)

func (t Traversal) String() string {
	if t == TraversalBatch {
		return "batch"
	}
	return "probe"
}

// PathPlanner chooses the expansion operator per sub-path step and
// learns from measured executions. internal/planner.PathModel is the
// production implementation; a nil planner means TraversalProbe
// everywhere (the unplanned executor).
type PathPlanner interface {
	// ChooseTraversal picks the operator for expanding fanout OIDs into
	// relID, returning the choice and its estimated page cost.
	ChooseTraversal(relID uint16, fanout int) (Traversal, float64)
	// ObserveTraversal feeds back a measured expansion: tr fetched
	// fanout OIDs from relID in pages page reads.
	ObserveTraversal(relID uint16, tr Traversal, fanout int, pages int64)
}

// ExecOpts parameterizes planned execution. The zero value is the
// unplanned executor.
type ExecOpts struct {
	// Planner, when non-nil, chooses the traversal per path step.
	Planner PathPlanner
	// IOStat, when non-nil, samples the cumulative page-read counter so
	// expansions can be measured and fed back to the planner.
	IOStat func() int64

	// depth counts stored-query recursion. Unlike pathExec's segment
	// depth, it must survive across ExecuteWith re-entry: each TagProc
	// expansion runs a fresh query pipeline, and without this a stored
	// query reaching back into its own relation would recurse forever.
	depth int
}

// ExecuteWith runs a parsed query under opts. Execute delegates here
// with zero options, so planned and unplanned execution share one
// pipeline — the differential tests hold them row-identical.
func ExecuteWith(cat *catalog.Catalog, q *Query, opts ExecOpts) (*Result, error) {
	for _, t := range q.Targets {
		if t.Pathy() {
			return execPath(cat, q, opts)
		}
	}
	rels := q.Relations()
	switch len(rels) {
	case 0:
		return nil, fmt.Errorf("%w: query references no relations", ErrExec)
	case 1:
		return execSingle(cat, q, rels[0])
	case 2:
		return execJoin(cat, q, rels[0], rels[1])
	default:
		return nil, fmt.Errorf("%w: %d-relation queries not supported", ErrExec, len(rels))
	}
}

// row flows through an iterator pipeline: the driving relation's base
// tuple plus, after projection, the output tuple.
type row struct {
	base tuple.Tuple
	out  tuple.Tuple
}

// rowIter is a pull-based streaming operator.
type rowIter interface {
	Next() (row, bool, error)
	Close()
}

// btreeScan streams a B-tree relation in key order, optionally bounded
// to [lo, hi].
type btreeScan struct {
	rel *catalog.Relation
	it  *btree.Iterator
	hi  int64
}

func (s *btreeScan) Next() (row, bool, error) {
	key, payload, ok, err := s.it.Next()
	if err != nil || !ok || key > s.hi {
		return row{}, false, err
	}
	t, err := tuple.Decode(s.rel.Schema, payload)
	if err != nil {
		return row{}, false, err
	}
	return row{base: t}, true, nil
}

func (s *btreeScan) Close() { s.it.Close() }

// sliceScan replays pre-materialized tuples — the fallback for heap
// relations, whose push-only Scan cannot be pulled from.
type sliceScan struct {
	rows []tuple.Tuple
	i    int
}

func (s *sliceScan) Next() (row, bool, error) {
	if s.i >= len(s.rows) {
		return row{}, false, nil
	}
	t := s.rows[s.i]
	s.i++
	return row{base: t}, true, nil
}

func (s *sliceScan) Close() {}

// newRelScan builds the scan operator for rel: a pulled B-tree range
// scan when the predicate bounds the key, a full B-tree scan otherwise,
// and a one-shot materialization for heap relations (heap.Scan is
// push-only). The returned op string names the choice for Explain.
func newRelScan(rel *catalog.Relation, where Expr) (rowIter, string, error) {
	switch rel.Kind {
	case catalog.KindBTree:
		lo, hi := int64(-1<<62), int64(1<<62)
		op := "full-scan"
		if where != nil {
			if l, h := keyRange(rel, where); l > lo || h < hi {
				lo, hi = l, h
				op = fmt.Sprintf("range-scan [%d,%d]", lo, hi)
			}
		}
		var (
			it  *btree.Iterator
			err error
		)
		if op == "full-scan" {
			it, err = rel.Tree.SeekFirst()
		} else {
			it, err = rel.Tree.SeekGE(lo)
		}
		if err != nil {
			return nil, "", err
		}
		return &btreeScan{rel: rel, it: it, hi: hi}, op, nil
	case catalog.KindHeap:
		var rows []tuple.Tuple
		var ferr error
		err := rel.Heap.Scan(func(_ storage.RID, rec []byte) bool {
			t, err := tuple.Decode(rel.Schema, rec)
			if err != nil {
				ferr = err
				return false
			}
			rows = append(rows, t)
			return true
		})
		if ferr != nil {
			err = ferr
		}
		if err != nil {
			return nil, "", err
		}
		return &sliceScan{rows: rows}, "heap-scan", nil
	default:
		return nil, "", fmt.Errorf("%w: cannot scan %q (hash relations are key-value stores)", ErrExec, rel.Name)
	}
}

// filterIter drops rows whose binding fails the predicate.
type filterIter struct {
	cat   *catalog.Catalog
	rel   string
	where Expr
	src   rowIter
}

func (f *filterIter) Next() (row, bool, error) {
	for {
		r, ok, err := f.src.Next()
		if err != nil || !ok {
			return row{}, false, err
		}
		pass, err := eval(f.cat, f.where, env{f.rel: r.base})
		if err != nil {
			return row{}, false, err
		}
		if pass {
			return r, true, nil
		}
	}
}

func (f *filterIter) Close() { f.src.Close() }

// projectIter fills each row's output tuple from the target columns.
type projectIter struct {
	cat  *catalog.Catalog
	rel  string
	cols []Operand
	src  rowIter
}

func (p *projectIter) Next() (row, bool, error) {
	r, ok, err := p.src.Next()
	if err != nil || !ok {
		return row{}, false, err
	}
	out, err := project(p.cat, p.cols, env{p.rel: r.base})
	if err != nil {
		return row{}, false, err
	}
	r.out = out
	return r, true, nil
}

func (p *projectIter) Close() { p.src.Close() }

// maxPathDepth bounds multi-dot expansion (and stored-procedure
// recursion) so cyclic procedural attributes terminate with an error
// instead of looping.
const maxPathDepth = 8

// execPath runs a query whose target list contains one multi-dot path:
// the root relation is scanned (and filtered) streamingly, and each
// surviving root row is expanded through its children attributes, one
// output row per reached subobject — plain targets repeat per expansion,
// join-style. Exactly one path target is supported, all other targets
// and the predicate must bind the root relation.
func execPath(cat *catalog.Catalog, q *Query, opts ExecOpts) (*Result, error) {
	if opts.depth >= maxPathDepth {
		return nil, fmt.Errorf("%w: stored query recursion deeper than %d (cyclic procedural attribute?)", ErrExec, maxPathDepth)
	}
	ptIdx := -1
	for i, t := range q.Targets {
		if !t.Pathy() {
			continue
		}
		if ptIdx >= 0 {
			return nil, fmt.Errorf("%w: at most one multi-dot path target per query", ErrExec)
		}
		ptIdx = i
	}
	pt := q.Targets[ptIdx]
	if pt.All() {
		return nil, fmt.Errorf("%w: 'all' cannot start a multi-dot path", ErrExec)
	}
	rel, err := cat.Get(pt.Rel)
	if err != nil {
		return nil, err
	}
	for _, rn := range q.Relations() {
		if rn != pt.Rel {
			return nil, fmt.Errorf("%w: path query must bind only %q (got %q)", ErrExec, pt.Rel, rn)
		}
	}
	// Plain targets resolve against the root schema; the path column's
	// field spec is discovered at the first reached leaf.
	fields := make([]tuple.Field, len(q.Targets))
	plainCols := make([]Operand, len(q.Targets))
	for i, t := range q.Targets {
		if i == ptIdx {
			fields[i] = tuple.Field{Name: pt.String(), Kind: tuple.KInt, Width: 8}
			continue
		}
		if t.All() {
			return nil, fmt.Errorf("%w: rel.all cannot accompany a path target", ErrExec)
		}
		fi := rel.Schema.Index(t.Attr)
		if fi < 0 {
			return nil, fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, t.Rel, t.Attr)
		}
		f := rel.Schema.Fields[fi]
		fields[i] = tuple.Field{Name: t.Rel + "." + f.Name, Kind: f.Kind, Width: f.Width}
		plainCols[i] = Operand{Rel: t.Rel, Attr: t.Attr}
	}
	rootIdx := rel.Schema.Index(pt.Attr)
	if rootIdx < 0 {
		return nil, fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, pt.Rel, pt.Attr)
	}
	if rel.Schema.Fields[rootIdx].Kind != tuple.KBytes {
		return nil, fmt.Errorf("%w: %s.%s is not a children attribute", ErrExec, pt.Rel, pt.Attr)
	}

	src, _, err := newRelScan(rel, q.Where)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var it rowIter = src
	if q.Where != nil {
		it = &filterIter{cat: cat, rel: pt.Rel, where: q.Where, src: it}
	}

	px := &pathExec{cat: cat, opts: opts}
	res := &Result{}
	keyed := len(rel.Schema.Fields) > 0 && rel.Schema.Fields[0].Kind == tuple.KInt
	for {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		vals, err := px.expand(r.base[rootIdx].Raw, pt.Path, 0)
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			out := make(tuple.Tuple, len(q.Targets))
			for i := range q.Targets {
				if i == ptIdx {
					out[i] = v
					continue
				}
				rv, err := resolve(cat, plainCols[i], env{pt.Rel: r.base})
				if err != nil {
					return nil, err
				}
				out[i] = rv
			}
			res.Tuples = append(res.Tuples, out)
			if keyed {
				res.Sources = append(res.Sources, Source{RelID: rel.ID, Key: r.base[0].Int})
			}
		}
	}
	if px.leaf != nil {
		fields[ptIdx].Kind = px.leaf.Kind
		fields[ptIdx].Width = px.leaf.Width
		fields[ptIdx].Name = pt.String()
	}
	res.Schema = tuple.NewSchema(fields...)
	return res, nil
}

// pathExec expands children attributes through the representation tags,
// choosing (and measuring) the traversal operator per OID step.
type pathExec struct {
	cat  *catalog.Catalog
	opts ExecOpts
	// leaf records the field spec of the first projected leaf attribute,
	// which becomes the path column's schema entry.
	leaf *tuple.Field
}

// expand follows segs through one encoded children value, returning the
// projected leaf values in traversal order.
func (px *pathExec) expand(raw []byte, segs []string, depth int) ([]tuple.Value, error) {
	if depth >= maxPathDepth {
		return nil, fmt.Errorf("%w: path expansion deeper than %d (cyclic procedural attribute?)", ErrExec, maxPathDepth)
	}
	if len(raw) == 0 {
		return nil, nil // no children
	}
	switch raw[0] {
	case object.TagOIDs:
		oids, err := object.DecodeOIDs(raw[1:])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrExec, err)
		}
		return px.expandOIDs(oids, segs, depth)
	case object.TagValue:
		if len(raw) < 3 {
			return nil, fmt.Errorf("%w: truncated value-based children field", ErrExec)
		}
		relID := binary.LittleEndian.Uint16(raw[1:3])
		rel, err := px.cat.ByID(relID)
		if err != nil {
			return nil, err
		}
		rows, err := object.DecodeNested(rel.Schema, raw[3:])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrExec, err)
		}
		var out []tuple.Value
		for _, t := range rows {
			vs, err := px.step(rel.Schema, t, segs, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, vs...)
		}
		return out, nil
	case object.TagProc:
		sub, err := Parse(string(raw[1:]))
		if err != nil {
			return nil, fmt.Errorf("%w: stored query: %v", ErrExec, err)
		}
		res, err := px.execSub(sub, depth)
		if err != nil {
			return nil, err
		}
		var out []tuple.Value
		for _, t := range res.Tuples {
			vs, err := px.step(res.Schema, t, segs, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, vs...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: unknown children representation tag %q", ErrExec, raw[0])
}

// execSub evaluates a stored procedural query, threading the planner
// options with the recursion depth advanced — execPath refuses once the
// nesting passes maxPathDepth.
func (px *pathExec) execSub(q *Query, depth int) (*Result, error) {
	opts := px.opts
	opts.depth += depth + 1
	return ExecuteWith(px.cat, q, opts)
}

// expandOIDs fetches the listed subobjects — grouped per relation, with
// the traversal chosen per group — and steps each one through the
// remaining segments, in OID-list order regardless of traversal.
func (px *pathExec) expandOIDs(oids []object.OID, segs []string, depth int) ([]tuple.Value, error) {
	if len(oids) == 0 {
		return nil, nil
	}
	// Relations are visited in id order so the choose/observe sequence
	// (and hence the learned model) is deterministic.
	groups, err := px.cat.GroupOIDs(oids)
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, len(oids))
	rels := make([]*catalog.Relation, len(oids))
	for _, g := range groups {
		rel, relID := g.Rel, g.Rel.ID
		if rel.Kind != catalog.KindBTree || rel.Tree == nil {
			return nil, fmt.Errorf("%w: OID target %q is not B-tree structured", ErrExec, rel.Name)
		}
		tr := TraversalProbe
		if px.opts.Planner != nil {
			tr, _ = px.opts.Planner.ChooseTraversal(relID, len(g.Pos))
		}
		var io0 int64
		if px.opts.IOStat != nil {
			io0 = px.opts.IOStat()
		}
		if tr == TraversalBatch {
			err = g.GetBatch(oids, func(i int, _ *catalog.Relation, payload []byte) error {
				payloads[i] = append([]byte(nil), payload...)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrExec, err)
			}
		} else {
			for _, idx := range g.Pos {
				payload, err := rel.Tree.Get(oids[idx].Key())
				if err != nil {
					return nil, fmt.Errorf("%w: subobject %s: %v", ErrExec, oids[idx], err)
				}
				payloads[idx] = payload // Get returns the caller's own copy
			}
		}
		for _, idx := range g.Pos {
			rels[idx] = rel
		}
		if px.opts.Planner != nil && px.opts.IOStat != nil {
			px.opts.Planner.ObserveTraversal(relID, tr, len(g.Pos), px.opts.IOStat()-io0)
		}
	}

	var out []tuple.Value
	for i, rel := range rels {
		t, err := tuple.Decode(rel.Schema, payloads[i])
		if err != nil {
			return nil, err
		}
		vs, err := px.step(rel.Schema, t, segs, depth)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

// step applies the next segment to a reached tuple: the last segment
// projects, earlier segments must name further children attributes.
func (px *pathExec) step(s *tuple.Schema, t tuple.Tuple, segs []string, depth int) ([]tuple.Value, error) {
	idx := fieldIndex(s, segs[0])
	if idx < 0 {
		return nil, fmt.Errorf("%w: no attribute %q along path", ErrExec, segs[0])
	}
	f := s.Fields[idx]
	if len(segs) == 1 {
		if px.leaf == nil {
			lf := f
			px.leaf = &lf
		}
		return []tuple.Value{t[idx]}, nil
	}
	if f.Kind != tuple.KBytes {
		return nil, fmt.Errorf("%w: %q is not a children attribute", ErrExec, segs[0])
	}
	return px.expand(t[idx].Raw, segs[1:], depth+1)
}

// fieldIndex resolves attr against a schema, accepting both bare names
// and the "rel.attr" names stored-query results carry.
func fieldIndex(s *tuple.Schema, attr string) int {
	if i := s.Index(attr); i >= 0 {
		return i
	}
	for i, f := range s.Fields {
		if strings.HasSuffix(f.Name, "."+attr) {
			return i
		}
	}
	return -1
}
