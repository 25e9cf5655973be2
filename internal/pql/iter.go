package pql

// Streaming execution: a pipeline pulls encoded records from a scan,
// filters them with the bound predicate, expands a multi-dot path
// through the children attributes — with the traversal a planner may
// choose per step — and emits rows one at a time. Records stay encoded
// views between the stages (bind.go); only what the query returns is
// materialized.

import (
	"encoding/binary"
	"fmt"

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

// relScan streams the encoded records of a relation: a B-tree in key
// order, optionally bounded to [lo, hi], as views into the leaf the
// cursor holds pinned — valid until the next Next or Close — or a heap,
// whose push-only Scan is drained into one buffer up front. Every record
// is framing-checked as it enters the pipeline, which is what lets the
// stages behind the scan read single fields.
type relScan struct {
	schema *tuple.Schema
	it     *btree.Iterator // B-tree relations
	hi     int64
	buf    []byte // heap relations: the records back to back, ends[i] closing the i-th
	ends   []int
	i      int
}

func (s *relScan) Next() ([]byte, bool, error) {
	var rec []byte
	if s.it != nil {
		key, payload, ok, err := s.it.Next()
		if err != nil || !ok || key > s.hi {
			return nil, false, err
		}
		rec = payload
	} else {
		if s.i == len(s.ends) {
			return nil, false, nil
		}
		start := 0
		if s.i > 0 {
			start = s.ends[s.i-1]
		}
		rec = s.buf[start:s.ends[s.i]]
		s.i++
	}
	if err := tuple.Check(s.schema, rec); err != nil {
		return nil, false, err
	}
	return rec, true, nil
}

// Close releases the leaf the scan holds; required on every path that
// stops before exhaustion, harmless after it.
func (s *relScan) Close() {
	if s.it != nil {
		s.it.Close()
	}
}

// openScan builds the scan for rel: a B-tree range scan when the
// predicate bounds the key, a full B-tree scan otherwise, a drained heap
// scan for heap relations.
func openScan(rel *catalog.Relation, where Expr) (*relScan, error) {
	s := &relScan{schema: rel.Schema}
	switch rel.Kind {
	case catalog.KindBTree:
		lo, hi := int64(-1<<62), int64(1<<62)
		if where != nil {
			lo, hi = keyRange(rel, where)
		}
		var err error
		if lo > -1<<62 || hi < 1<<62 {
			s.it, err = rel.Tree.SeekGE(lo)
		} else {
			s.it, err = rel.Tree.SeekFirst()
		}
		s.hi = hi
		return s, err
	case catalog.KindHeap:
		err := rel.Heap.Scan(func(_ storage.RID, rec []byte) bool {
			s.buf = append(s.buf, rec...)
			s.ends = append(s.ends, len(s.buf))
			return true
		})
		return s, err
	default:
		return nil, fmt.Errorf("%w: cannot scan %q (hash relations are key-value stores)", ErrExec, rel.Name)
	}
}

// maxPathDepth bounds multi-dot expansion (and stored-procedure
// recursion) so cyclic procedural attributes terminate with an error
// instead of looping.
const maxPathDepth = 8

// runPath runs a query whose target list contains one multi-dot path:
// the root relation is scanned (and filtered) streamingly, and each
// surviving root row is expanded through its children attributes, one
// output row per reached subobject — plain targets repeat per expansion,
// join-style. Exactly one path target is supported, all other targets
// and the predicate must bind the root relation.
func runPath(cat *catalog.Catalog, q *Query, opts ExecOpts, emit func(*bound) error) (*bound, error) {
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
	names := q.Relations()
	for _, rn := range names {
		if rn != pt.Rel {
			return nil, fmt.Errorf("%w: path query must bind only %q (got %q)", ErrExec, pt.Rel, rn)
		}
	}
	b, err := bind(cat, q, names)
	if err != nil {
		return nil, err
	}
	rel := b.rels[0]
	// Plain targets resolve against the root schema; the path column
	// takes the field spec of the first reached leaf.
	fields := make([]tuple.Field, len(q.Targets))
	b.cols = make([]col, len(q.Targets))
	for i, t := range q.Targets {
		if i == ptIdx {
			fields[i] = tuple.Field{Name: pt.String(), Kind: tuple.KInt, Width: 8}
			b.cols[i] = col{slot: pathSlot}
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
		b.cols[i] = col{idx: fi}
	}
	rootIdx := rel.Schema.Index(pt.Attr)
	if rootIdx < 0 {
		return nil, fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, pt.Rel, pt.Attr)
	}
	if rel.Schema.Fields[rootIdx].Kind != tuple.KBytes {
		return nil, fmt.Errorf("%w: %s.%s is not a children attribute", ErrExec, pt.Rel, pt.Attr)
	}
	if b.schema, err = resultSchema(fields); err != nil {
		return nil, err
	}
	b.keyed = keyed(rel.Schema)

	scan, err := openScan(rel, q.Where)
	if err != nil {
		return nil, err
	}
	defer scan.Close()
	px := &pathExec{cat: cat, opts: opts, leaf: &b.schema.Fields[ptIdx]}
	var vals []tuple.Value
	for {
		rec, ok, err := scan.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return b, nil
		}
		b.recs[0] = rec
		if ok, err := b.pass(); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		kids, err := tuple.DecodeField(rel.Schema, rec, rootIdx)
		if err != nil {
			return nil, err
		}
		if vals, err = px.expand(kids.Raw, pt.Path, 0, vals[:0]); err != nil {
			return nil, err
		}
		for _, v := range vals {
			b.path = v
			if err := emit(b); err != nil {
				return nil, err
			}
		}
	}
}

// pathExec expands children attributes through the representation tags,
// choosing (and measuring) the traversal operator per OID step.
type pathExec struct {
	cat  *catalog.Catalog
	opts ExecOpts
	// leaf is the path column's entry in the result schema; the first
	// projected leaf attribute gives it its kind and width.
	leaf     *tuple.Field
	leafSeen bool
	// memo[d] remembers where the segment applied at depth d sits in the
	// schema last seen there: a path reaches the same few relations over
	// and over, so the name is looked up once, not per reached row.
	memo [maxPathDepth]struct {
		schema *tuple.Schema
		idx    int
	}
}

// reached is a row a path step lands on: a stored record (an OID's
// target, an inline member), or the current row of a running stored
// query, whose columns are its bound target list.
type reached struct {
	schema *tuple.Schema
	rec    []byte
	sub    *bound
}

func (r reached) col(i int) (tuple.Value, error) {
	if r.sub != nil {
		return r.sub.col(i)
	}
	return tuple.DecodeField(r.schema, r.rec, i)
}

// expand follows segs through one encoded children value, appending the
// projected leaf values to out in traversal order. raw is read in place
// and must stay valid for the call.
func (px *pathExec) expand(raw []byte, segs []string, depth int, out []tuple.Value) ([]tuple.Value, error) {
	if depth >= maxPathDepth {
		return nil, fmt.Errorf("%w: path expansion deeper than %d (cyclic procedural attribute?)", ErrExec, maxPathDepth)
	}
	if len(raw) == 0 {
		return out, nil // no children
	}
	last := len(segs) == 1
	switch raw[0] {
	case object.TagOIDs:
		oids, err := object.DecodeOIDs(raw[1:])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrExec, err)
		}
		return px.expandOIDs(oids, segs, depth, out)
	case object.TagValue:
		if len(raw) < 3 {
			return nil, fmt.Errorf("%w: truncated value-based children field", ErrExec)
		}
		rel, err := px.cat.ByID(binary.LittleEndian.Uint16(raw[1:3]))
		if err != nil {
			return nil, err
		}
		// Members are walked in place: each is checked and stepped before
		// the next is looked at, and what a member raises is the query's
		// error as is; only damage to the framing around them is ErrExec.
		var rowErr error
		err = object.EachNested(raw[3:], func(rec []byte) error {
			var v tuple.Value
			if v, rowErr = px.enter(rel.Schema, rec, segs, depth); rowErr != nil {
				return rowErr
			}
			if last {
				out = append(out, v)
			} else {
				out, rowErr = px.expand(v.Raw, segs[1:], depth+1, out)
			}
			return rowErr
		})
		if rowErr != nil {
			return nil, rowErr
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrExec, err)
		}
		return out, nil
	case object.TagProc:
		sub, err := Parse(string(raw[1:]))
		if err != nil {
			return nil, fmt.Errorf("%w: stored query: %v", ErrExec, err)
		}
		// The stored query runs to its end before any further segment is
		// followed, so its scan and the expansions below it do not
		// interleave their page accesses.
		var kids [][]byte
		opts := px.opts
		opts.depth += depth + 1 // runPath refuses once the nesting passes maxPathDepth
		_, err = run(px.cat, sub, opts, func(b *bound) error {
			v, err := px.step(reached{schema: b.schema, sub: b}, segs, depth)
			if err != nil {
				return err
			}
			if last {
				out = append(out, v)
			} else {
				kids = append(kids, v.Raw)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return px.expandAll(kids, segs[1:], depth+1, out)
	}
	return nil, fmt.Errorf("%w: unknown children representation tag %q", ErrExec, raw[0])
}

// expandAll expands each children value in turn.
func (px *pathExec) expandAll(kids [][]byte, segs []string, depth int, out []tuple.Value) ([]tuple.Value, error) {
	var err error
	for _, raw := range kids {
		if out, err = px.expand(raw, segs, depth, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// expandOIDs fetches the listed subobjects — grouped per relation, with
// the traversal chosen per group — and steps each one through the
// remaining segments, in OID-list order regardless of traversal. The
// last segment is projected straight off the pinned page, into the
// subobject's place in out; an earlier one has its children value copied
// out, and the copies are expanded once every group has been fetched, so
// a fetch and the expansions below it do not interleave.
func (px *pathExec) expandOIDs(oids []object.OID, segs []string, depth int, out []tuple.Value) ([]tuple.Value, error) {
	if len(oids) == 0 {
		return out, nil
	}
	// Relations are visited in id order so the choose/observe sequence
	// (and hence the learned model) is deterministic.
	groups, err := px.cat.GroupOIDs(oids)
	if err != nil {
		return nil, err
	}
	last := len(segs) == 1
	base := len(out)
	var kids [][]byte
	if last {
		out = append(out, make([]tuple.Value, len(oids))...)
	} else {
		kids = make([][]byte, len(oids))
	}
	// rowErr is what a fetched record raised (a damaged record, a path
	// that does not fit it): the query's error as is, where a failed
	// fetch is wrapped as ErrExec.
	var rowErr error
	take := func(i int, rel *catalog.Relation, payload []byte) error {
		var v tuple.Value
		if v, rowErr = px.enter(rel.Schema, payload, segs, depth); rowErr != nil {
			return rowErr
		}
		if last {
			out[base+i] = v
		} else {
			kids[i] = v.Raw
		}
		return nil
	}
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
			err = g.GetBatch(oids, take)
			if err != nil && rowErr == nil {
				err = fmt.Errorf("%w: %v", ErrExec, err)
			}
		} else {
			for _, idx := range g.Pos {
				err = rel.Tree.View(oids[idx].Key(), func(payload []byte) error { return take(idx, rel, payload) })
				if err != nil {
					if rowErr == nil {
						err = fmt.Errorf("%w: subobject %s: %v", ErrExec, oids[idx], err)
					}
					break
				}
			}
		}
		if rowErr != nil {
			return nil, rowErr
		}
		if err != nil {
			return nil, err
		}
		if px.opts.Planner != nil && px.opts.IOStat != nil {
			px.opts.Planner.ObserveTraversal(relID, tr, len(g.Pos), px.opts.IOStat()-io0)
		}
	}
	return px.expandAll(kids, segs[1:], depth+1, out)
}

// enter is step for a stored record the path has just reached: the
// record is framing-checked before anything is read from it.
func (px *pathExec) enter(s *tuple.Schema, rec []byte, segs []string, depth int) (tuple.Value, error) {
	if err := tuple.Check(s, rec); err != nil {
		return tuple.Value{}, err
	}
	return px.step(reached{schema: s, rec: rec}, segs, depth)
}

// step reads the next segment from a reached row. The last segment's
// value is the projection; an earlier one must be a children attribute,
// whose value the caller expands through the segments that follow.
// Either way the value is the caller's own copy.
func (px *pathExec) step(r reached, segs []string, depth int) (tuple.Value, error) {
	m := &px.memo[depth]
	if m.schema != r.schema {
		m.schema, m.idx = r.schema, r.schema.Lookup(segs[0])
	}
	if m.idx < 0 {
		return tuple.Value{}, fmt.Errorf("%w: no attribute %q along path", ErrExec, segs[0])
	}
	f := &r.schema.Fields[m.idx]
	if len(segs) == 1 {
		if !px.leafSeen {
			px.leaf.Kind, px.leaf.Width, px.leafSeen = f.Kind, f.Width, true
		}
	} else if f.Kind != tuple.KBytes {
		return tuple.Value{}, fmt.Errorf("%w: %q is not a children attribute", ErrExec, segs[0])
	}
	return r.col(m.idx)
}
