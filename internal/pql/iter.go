package pql

// Streaming execution: a pipeline pulls encoded records from a scan,
// filters them with the bound predicate, expands a multi-dot path
// through the children attributes and emits rows one at a time. Records
// stay encoded views between the stages (bind.go); only what the query
// returns is materialized.

import (
	"fmt"

	"corep/internal/btree"
	"corep/internal/catalog"
	"corep/internal/object"
	"corep/internal/storage"
	"corep/internal/tuple"
)

// ReadView is how an expansion reads the subobjects an OID list names:
// one at a time, or the whole list in page order with fn seeing the
// record of oids[i] under its position i. A record is lent to fn as a
// view, valid until fn returns. *catalog.Catalog is the plain view; a
// database that keeps copies of hot subobjects elsewhere supplies one
// that knows where they are.
type ReadView interface {
	ViewOID(oid object.OID, fn func(rel *catalog.Relation, rec []byte) error) error
	ProbeOIDs(oids []object.OID, fn func(i int, rel *catalog.Relation, rec []byte) error) error
}

// ExecOpts is the state one execution hands the pipelines it nests. The
// zero value starts a query.
type ExecOpts struct {
	// depth counts stored-query recursion. Unlike the expander's segment
	// depth, it must survive across re-entry: each stored query an
	// expansion meets runs a fresh pipeline, and without this one that
	// reaches back into its own relation would recurse forever.
	depth int
}

// relScan streams the encoded records of a relation: a B-tree in key
// order, optionally bounded to [lo, hi], as views into the leaf the
// cursor holds pinned — valid until the next Next or Close — or a heap,
// whose push-only Scan is drained into one buffer up front. Every record
// is framing-checked as it enters the pipeline, which is what lets the
// stages behind the scan read single fields.
type relScan struct {
	rel  *catalog.Relation
	it   *btree.Iterator // B-tree relations
	key  int64           // of the record it stands on
	hi   int64
	buf  []byte // heap relations: the records back to back, ends[i] closing the i-th
	ends []int
	i    int
}

func (s *relScan) Next() ([]byte, bool, error) {
	var rec []byte
	if s.it != nil {
		key, payload, ok, err := s.it.Next()
		if err != nil || !ok || key > s.hi {
			return nil, false, err
		}
		rec, s.key = payload, key
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
	if err := tuple.Check(s.rel.Schema, rec); err != nil {
		return nil, false, err
	}
	return rec, true, nil
}

// owner is the identity of the record the scan stands on: a B-tree
// record whose key fits an OID has one, a heap record has none (zero).
func (s *relScan) owner() object.OID {
	if s.it == nil || s.key < 0 || s.key > object.MaxKey {
		return 0
	}
	return object.NewOID(s.rel.ID, s.key)
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
	s := &relScan{rel: rel}
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
func runPath(st Store, q *Query, opts ExecOpts, emit func(*bound) error) (*bound, error) {
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
	b, err := bind(st.Cat, q, names)
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
	px := newExpander(st, opts, &b.schema.Fields[ptIdx])
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
		if vals, err = px.expand(scan.owner(), kids.Raw, pt.Path, 0, vals[:0]); err != nil {
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

// Expander follows the segments of a multi-dot path through encoded
// children values, whichever representation each holds. It is the one
// path expander: a Query's path target and the facade's RetrievePath
// family both hand it a children value and the segments that remain.
type Expander struct {
	st   Store
	opts ExecOpts
	// leaf, until the first leaf attribute has been projected, is the
	// path column's entry in the result schema, which takes its kind and
	// width from that attribute.
	leaf *tuple.Field
	// memo[d] remembers where the segment applied at depth d sits in the
	// schema last seen there: a path reaches the same few relations over
	// and over, so the name is looked up once, not per reached row.
	memo [maxPathDepth]struct {
		schema *tuple.Schema
		idx    int
	}
	// take is takeRecord bound once: a closure made per OID list would
	// escape to the heap through the read view's interface, so what the
	// fetch in progress wants done with each record sits in cur instead.
	// Fetches never nest — a record is stepped, not expanded, under its
	// pin — so one cur is enough.
	take func(i int, rel *catalog.Relation, rec []byte) error
	cur  oidFetch
}

// oidFetch is what takeRecord does with the records of one OID list.
type oidFetch struct {
	segs  []string
	depth int
	vals  []tuple.Value // last segment: vals[i] takes what oids[i] projects
	kids  [][]byte      // an earlier one: kids[i] takes its children value
	// rowErr is what a fetched record raised (a damaged record, a path
	// that does not fit it): the query's error as is, where a failed
	// fetch is wrapped as ErrExec.
	rowErr error
}

func newExpander(st Store, opts ExecOpts, leaf *tuple.Field) *Expander {
	px := &Expander{st: st, opts: opts, leaf: leaf}
	px.take = px.takeRecord
	return px
}

// Expander returns an expander over st for one retrieval.
func (st Store) Expander() *Expander { return newExpander(st, ExecOpts{}, nil) }

// Expand follows segs — children attributes, then the attribute to
// project — through raw, the encoded children value of the object owner
// (zero for one without identity), appending the projected values to out
// in traversal order. raw is read in place and must stay valid for the
// call; the appended values own their bytes.
func (px *Expander) Expand(owner object.OID, raw []byte, segs []string, out []tuple.Value) ([]tuple.Value, error) {
	return px.expand(owner, raw, segs, 0, out)
}

// ExpandOIDs is Expand for an OID list already in hand.
func (px *Expander) ExpandOIDs(owner object.OID, oids []object.OID, segs []string, out []tuple.Value) ([]tuple.Value, error) {
	return px.expandOIDs(owner, oids, segs, 0, out)
}

func (px *Expander) expand(owner object.OID, raw []byte, segs []string, depth int, out []tuple.Value) ([]tuple.Value, error) {
	if depth >= maxPathDepth {
		return nil, fmt.Errorf("%w: path expansion deeper than %d (cyclic procedural attribute?)", ErrExec, maxPathDepth)
	}
	if len(raw) == 0 {
		return out, nil // no children
	}
	c, err := object.ParseChildren(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrExec, err)
	}
	last := len(segs) == 1
	switch c.Rep {
	case object.OIDs:
		return px.expandOIDs(owner, c.OIDs, segs, depth, out)
	case object.ValueBased:
		rel, err := px.st.Cat.ByID(c.RelID)
		if err != nil {
			return nil, err
		}
		// Members are walked in place: each is checked and stepped before
		// the next is looked at, and what a member raises is the query's
		// error as is; only damage to the framing around them is ErrExec.
		// An inline member has no identity, so nothing below it is owned.
		var rowErr error
		err = object.EachNested(c.Nested, func(rec []byte) error {
			var v tuple.Value
			if v, rowErr = px.enter(rel, rec, segs, depth); rowErr != nil {
				return rowErr
			}
			if last {
				out = append(out, v)
			} else {
				out, rowErr = px.expand(0, v.Raw, segs[1:], depth+1, out)
			}
			return rowErr
		})
		if rowErr != nil {
			return nil, rowErr
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrExec, err)
		}
		return out, nil
	default: // object.Procedural
		sub, err := Parse(c.Query)
		if err != nil {
			return nil, fmt.Errorf("%w: stored query: %w", ErrExec, err)
		}
		// The stored query runs to its end before any further segment is
		// followed, so its scan and the expansions below it do not
		// interleave their page accesses. Its rows are columns of a target
		// list, not objects: what they hold is expanded unowned.
		var kids [][]byte
		opts := px.opts
		opts.depth += depth + 1 // runPath refuses once the nesting passes maxPathDepth
		_, err = run(px.st, sub, opts, func(b *bound) error {
			i, err := px.step(b.schema, "", segs, depth)
			if err != nil {
				return err
			}
			v, err := b.col(i)
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
		return px.expandAll(nil, kids, segs[1:], depth+1, out)
	}
}

// expandAll expands each children value in turn; owners, when not nil,
// names the object that holds kids[i].
func (px *Expander) expandAll(owners []object.OID, kids [][]byte, segs []string, depth int, out []tuple.Value) ([]tuple.Value, error) {
	var err error
	for i, raw := range kids {
		var owner object.OID
		if owners != nil {
			owner = owners[i]
		}
		if out, err = px.expand(owner, raw, segs, depth, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// expandOIDs fetches the listed subobjects of owner and steps each one
// through the remaining segments, in OID-list order whatever order the
// fetch visits them in. The last segment is projected straight off the
// pinned page, into the subobject's place in out; an earlier one has its
// children value copied out, and the copies are expanded once the whole
// list has been fetched, so a fetch and the expansions below it do not
// interleave.
func (px *Expander) expandOIDs(owner object.OID, oids []object.OID, segs []string, depth int, out []tuple.Value) ([]tuple.Value, error) {
	if len(oids) == 0 {
		return out, nil
	}
	if px.st.Touch != nil && owner != 0 {
		px.st.Touch(owner)
	}
	px.cur = oidFetch{segs: segs, depth: depth}
	cur := &px.cur
	if base := len(out); len(segs) == 1 {
		out = append(out, make([]tuple.Value, len(oids))...)
		cur.vals = out[base:]
	} else {
		cur.kids = make([][]byte, len(oids))
	}
	// The one expansion operator: the view's page-ordered sweep of the
	// whole list, which below btree.BatchSortMin keys is the per-OID probe
	// loop and above it never reads more pages than that loop.
	err := px.st.View.ProbeOIDs(oids, px.take)
	if cur.rowErr != nil {
		return nil, cur.rowErr
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrExec, err)
	}
	return px.expandAll(oids, cur.kids, segs[1:], depth+1, out)
}

// takeRecord steps one fetched subobject for the fetch in progress.
func (px *Expander) takeRecord(i int, rel *catalog.Relation, rec []byte) error {
	cur := &px.cur
	v, err := px.enter(rel, rec, cur.segs, cur.depth)
	if err != nil {
		cur.rowErr = err
		return err
	}
	if cur.kids == nil {
		cur.vals[i] = v
	} else {
		cur.kids[i] = v.Raw
	}
	return nil
}

// enter reads the next segment from a stored record of rel the path has
// just reached — an OID's target, an inline member. The record is
// framing-checked before anything is read from it, and the value is the
// caller's own copy.
func (px *Expander) enter(rel *catalog.Relation, rec []byte, segs []string, depth int) (tuple.Value, error) {
	if err := tuple.Check(rel.Schema, rec); err != nil {
		return tuple.Value{}, err
	}
	i, err := px.step(rel.Schema, rel.Name, segs, depth)
	if err != nil {
		return tuple.Value{}, err
	}
	return tuple.DecodeField(rel.Schema, rec, i)
}

// step finds the next segment among the columns s of a row the path has
// reached: a stored record of relation rel, or (rel empty) the current
// row of a running stored query, whose columns are its bound target
// list. The last segment is the projection; an earlier one must be a
// children attribute, whose value the caller expands through the
// segments that follow.
func (px *Expander) step(s *tuple.Schema, rel string, segs []string, depth int) (int, error) {
	m := &px.memo[depth]
	if m.schema != s {
		m.schema, m.idx = s, s.Lookup(segs[0])
	}
	if m.idx < 0 {
		return -1, fmt.Errorf("%w: no attribute %q along path", ErrExec, segs[0])
	}
	f := &s.Fields[m.idx]
	if len(segs) == 1 {
		if px.leaf != nil {
			px.leaf.Kind, px.leaf.Width = f.Kind, f.Width
			px.leaf = nil
		}
	} else if f.Kind != tuple.KBytes {
		name := segs[0]
		if rel != "" {
			name = rel + "." + name
		}
		return -1, fmt.Errorf("%w: %s is not a children attribute", ErrExec, name)
	}
	return m.idx, nil
}
