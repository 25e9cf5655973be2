package pql

// Streaming execution: a pipeline pulls encoded records from a scan,
// filters them with the bound predicate, expands a multi-dot path
// through the children attributes and emits rows one at a time. Records
// stay encoded views between the stages (bind.go); only what the query
// returns is materialized.

import (
	"fmt"
	"math"
	"slices"

	"corep/internal/btree"
	"corep/internal/catalog"
	"corep/internal/object"
	"corep/internal/tuple"
)

// ReadView is how an expansion reads the subobjects an OID list names:
// one at a time, or the whole list in page order, in the caller's probe
// memory p, with fn seeing the record of oids[i] under its position i.
// A record is lent to fn as a view, valid until fn returns.
// *catalog.Catalog is the plain view; a database that keeps copies of
// hot subobjects elsewhere supplies one that knows where they are.
type ReadView interface {
	ViewOID(oid object.OID, fn func(rel *catalog.Relation, rec []byte) error) error
	ProbeOIDs(p *catalog.Probe, oids []object.OID, fn func(i int, rel *catalog.Relation, rec []byte) error) error
}

// ExecOpts is the state one execution hands the pipelines it nests. The
// zero value starts a query.
type ExecOpts struct {
	// depth counts stored-query recursion. Unlike the expander's segment
	// depth, it must survive across re-entry: each stored query an
	// expansion meets runs a fresh pipeline, and without this one that
	// reaches back into its own relation would recurse forever.
	depth int
	// call is the state of the Store call the execution runs in: the
	// text of the answer being collected, where the character values it
	// hands its caller are staged — every pipeline it nests stages into
	// it too — and the expander of each depth.
	call *call
}

// relScan streams the encoded records of a relation in key order,
// optionally bounded to [lo, hi], as views into the leaf the cursor
// holds pinned — valid until the next Next or Close. Every record is
// framing-checked as it enters the pipeline, which is what lets the
// stages behind the scan read single fields.
type relScan struct {
	rel *catalog.Relation
	it  *btree.Iterator // cur, an unbounded scan's own, or nil: an empty range
	cur btree.Iterator
	key int64 // of the record it stands on
	hi  int64
}

func (s *relScan) Next() ([]byte, bool, error) {
	if s.it == nil {
		return nil, false, nil // an empty range
	}
	key, rec, ok, err := s.it.Next()
	if err != nil || !ok || key > s.hi {
		return nil, false, err
	}
	s.key = key
	if err := tuple.Check(s.rel.Schema, rec); err != nil {
		return nil, false, err
	}
	return rec, true, nil
}

// owner is the identity of the record the scan stands on: zero when its
// key does not fit an OID.
func (s *relScan) owner() object.OID {
	if s.key < 0 || s.key > object.MaxKey {
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

// open makes s the scan for rel, over whatever closed scan s was: a
// range scan when the predicate bounds the key, a full scan otherwise,
// and no scan at all when no key satisfies it. A bounded scan seeks in
// s's own iterator, so a relScan opened scan after scan allocates
// nothing for it.
func (s *relScan) open(rel *catalog.Relation, where Expr) error {
	*s = relScan{rel: rel}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if where != nil {
		lo, hi = keyRange(rel, where)
	}
	s.hi = hi
	var err error
	switch {
	case lo > hi:
	case lo > math.MinInt64 || hi < math.MaxInt64:
		s.it = &s.cur
		err = rel.Tree.SeekGEInto(s.it, lo)
	default:
		s.it, err = rel.Tree.SeekFirst()
	}
	return err
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
// and the predicate must bind the root relation. With reuse, sc holds
// q's binding already.
func runPath(st Store, q *Query, opts ExecOpts, sc *scratch, emit func(*bound) error, reuse bool) (*bound, error) {
	if opts.depth >= maxPathDepth {
		return nil, fmt.Errorf("%w: stored query recursion deeper than %d (cyclic procedural attribute?)", ErrExec, maxPathDepth)
	}
	b := &sc.b
	if reuse {
		// The path column starts over as an integer, as bindPath makes it.
		f := &b.schema.Fields[b.pt]
		f.Kind, f.Width = tuple.KInt, 8
	} else if err := bindPath(st.Cat, q, sc); err != nil {
		return nil, err
	}
	rel, pt := b.rels[0], q.Targets[b.pt]
	scan := &sc.scan
	if err := scan.open(rel, q.Where); err != nil {
		return nil, err
	}
	defer scan.Close()
	px := opts.call.expander(st, opts, &b.schema.Fields[b.pt])
	// One root row's values collect in the expander's buffer, cleared
	// before the next row's and when the scan ends; a failed expansion
	// drops it with what it holds.
	vals := px.rootRow[:0]
	defer func() {
		clear(vals)
		px.rootRow = vals[:0]
	}()
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
		// The children value is read in place, under the scan's pin, which
		// holds until the expansion below has returned.
		kids, err := tuple.FieldBytes(rel.Schema, rec, b.kids)
		if err != nil {
			return nil, err
		}
		if vals, err = px.expand(scan.owner(), kids, pt.Path, 0, vals); err != nil {
			return nil, err
		}
		for _, v := range vals {
			b.path = v
			if err := emit(b); err != nil {
				return nil, err
			}
		}
		clear(vals)
		vals = vals[:0]
	}
}

// bindPath binds path query q into sc: its relation, what the bounded
// root scan leaves of its predicate, and its target list — the plain
// targets against the root schema, the path column as an integer until
// the first reached leaf says what it is.
func bindPath(cat *catalog.Catalog, q *Query, sc *scratch) error {
	ptIdx := -1
	for i, t := range q.Targets {
		if !t.Pathy() {
			continue
		}
		if ptIdx >= 0 {
			return fmt.Errorf("%w: at most one multi-dot path target per query", ErrExec)
		}
		ptIdx = i
	}
	pt := q.Targets[ptIdx]
	if pt.All() {
		return fmt.Errorf("%w: 'all' cannot start a multi-dot path", ErrExec)
	}
	sc.names = q.appendRelations(sc.names[:0])
	for _, rn := range sc.names {
		if rn != pt.Rel {
			return fmt.Errorf("%w: path query must bind only %q (got %q)", ErrExec, pt.Rel, rn)
		}
	}
	b := &sc.b
	if err := b.bind(cat, q, sc.names); err != nil {
		return err
	}
	rel := b.rels[0]
	for i, t := range q.Targets {
		if i == ptIdx {
			b.addPathCol(pt)
			continue
		}
		if t.All() {
			return fmt.Errorf("%w: rel.all cannot accompany a path target", ErrExec)
		}
		fi := rel.Schema.Index(t.Attr)
		if fi < 0 {
			return fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, t.Rel, t.Attr)
		}
		b.addCol(t.Rel, rel.Schema.Fields[fi], col{idx: fi})
	}
	rootIdx := rel.Schema.Index(pt.Attr)
	if rootIdx < 0 {
		return fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, pt.Rel, pt.Attr)
	}
	if rel.Schema.Fields[rootIdx].Kind != tuple.KBytes {
		return fmt.Errorf("%w: %s.%s is not a children attribute", ErrExec, pt.Rel, pt.Attr)
	}
	if err := b.setSchema(); err != nil {
		return err
	}
	b.keyed, b.pt, b.kids = keyed(rel.Schema), ptIdx, rootIdx
	return nil
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
	// row is takeRow bound once, the emit of every stored query the
	// expansion runs, with what it does with the rows in proc. A stored
	// query runs to its end before the path goes on, so one proc is
	// enough.
	row  func(*bound) error
	proc procRun
	// scratch[d] is where the stored queries met at depth d run, one
	// after the other, in this call and the calls the expander is lent
	// to after it: a stored query allocates its parse, binding and scan
	// only when it is bigger than any run there before.
	scratch [maxPathDepth]*scratch
	// oids[d] is where the OID lists met at depth d are decoded, one
	// after the other: a list is fetched and its members' children
	// values copied out before the next list at that depth is decoded.
	oids [maxPathDepth][]object.OID
	// kids[d] marks, in kidBytes[d], the children values an OID list or a
	// stored query met at depth d hands on: each is copied there under
	// the pin it was read under, and expanded once the list or the query
	// is done, before the next one at that depth starts.
	kids     [maxPathDepth][]span
	kidBytes [maxPathDepth][]byte
	// segs holds the segments Expand and ExpandOIDs were handed, so the
	// caller's list is only read.
	segs []string
	// probe is the fetches' memory (catalog.Probe): they never nest.
	probe catalog.Probe
	// rootRow is where a path query run here collects one root row's
	// values (runPath).
	rootRow []tuple.Value
}

// span is where a kept children value sits in its depth's kidBytes.
type span struct{ lo, hi int }

// procRun is what takeRow does with the rows of one stored query: on
// the last segment it appends the projected values to out, on an earlier
// one it keeps the children values at depth.
type procRun struct {
	segs  []string
	depth int
	out   []tuple.Value
}

// oidFetch is what takeRecord does with the records of one OID list: on
// the last segment vals[i] takes what oids[i] projects, on an earlier
// one kids[depth][i] marks its kept children value.
type oidFetch struct {
	segs  []string
	depth int
	vals  []tuple.Value
	// rowErr is what a fetched record raised (a damaged record, a path
	// that does not fit it): the query's error as is, where a failed
	// fetch is wrapped as ErrExec.
	rowErr error
}

// expander lends the expander of depth opts.depth for one retrieval
// over st, made on first use, with what it keeps from the retrievals
// before: its bound callbacks, per-depth scratch, OID, children-value and
// probe buffers. Everything the last retrieval left that names its own
// query is reset: the memo above all, whose schema key is a pointer that
// a lent scratch, or a relation this call projects another attribute of,
// puts back at the same address.
func (c *call) expander(st Store, opts ExecOpts, leaf *tuple.Field) *Expander {
	px := c.paths[opts.depth]
	if px == nil {
		px = new(Expander)
		px.take, px.row = px.takeRecord, px.takeRow
		c.paths[opts.depth] = px
	}
	px.st, px.opts, px.leaf = st, opts, leaf
	px.cur, px.proc = oidFetch{}, procRun{}
	clear(px.memo[:])
	return px
}

// Expand follows segs — children attributes, then the attribute to
// project — through raw, the encoded children value of the object owner
// (zero for one without identity), appending the projected values to out
// in traversal order. raw is read in place and must stay valid for the
// call; segs is only read. A character value is staged in the text of
// the answer being collected (Store.Collect), and has its string once
// the answer is; any other value owns its bytes.
func (px *Expander) Expand(owner object.OID, raw []byte, segs []string, out []tuple.Value) ([]tuple.Value, error) {
	px.segs = append(px.segs[:0], segs...)
	return px.expand(owner, raw, px.segs, 0, out)
}

// ExpandOIDs is Expand for an OID list already in hand.
func (px *Expander) ExpandOIDs(owner object.OID, oids []object.OID, segs []string, out []tuple.Value) ([]tuple.Value, error) {
	px.segs = append(px.segs[:0], segs...)
	return px.expandOIDs(owner, oids, px.segs, 0, out)
}

func (px *Expander) expand(owner object.OID, raw []byte, segs []string, depth int, out []tuple.Value) ([]tuple.Value, error) {
	if depth >= maxPathDepth {
		return nil, fmt.Errorf("%w: path expansion deeper than %d (cyclic procedural attribute?)", ErrExec, maxPathDepth)
	}
	if len(raw) == 0 {
		return out, nil // no children
	}
	c, err := object.ParseChildren(raw, px.oids[depth])
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrExec, err)
	}
	last := len(segs) == 1
	switch c.Rep {
	case object.OIDs:
		px.oids[depth] = c.OIDs
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
		sc := px.scratch[depth]
		if sc == nil {
			sc = new(scratch)
			px.scratch[depth] = sc
		}
		sub, err := parse(&sc.parse, c.Query)
		if err != nil {
			return nil, fmt.Errorf("%w: stored query: %w", ErrExec, err)
		}
		// The stored query runs to its end before any further segment is
		// followed, so its scan and the expansions below it do not
		// interleave their page accesses. Its rows are columns of a target
		// list, not objects: what they hold is expanded unowned. Its result
		// schema is built where the last stored query at this depth had
		// its own, at the same address: the memo must not take it for that
		// one.
		px.memo[depth].schema = nil
		px.proc = procRun{segs: segs, depth: depth, out: out}
		px.kids[depth], px.kidBytes[depth] = px.kids[depth][:0], px.kidBytes[depth][:0]
		opts := px.opts
		opts.depth += depth + 1 // runPath refuses once the nesting passes maxPathDepth
		_, err = run(px.st, sub, opts, sc, px.row)
		out = px.proc.out
		px.proc = procRun{}
		if err != nil {
			return nil, err
		}
		return px.expandKept(nil, segs[1:], depth, out)
	}
}

// takeRow steps one row of the stored query in progress.
func (px *Expander) takeRow(b *bound) error {
	pr := &px.proc
	i, err := px.step(b.schema, "", pr.segs, pr.depth)
	if err != nil {
		return err
	}
	if len(pr.segs) > 1 {
		raw, err := b.colBytes(i)
		if err != nil {
			return err
		}
		px.kids[pr.depth] = append(px.kids[pr.depth], px.keep(pr.depth, raw))
		return nil
	}
	v, err := b.col(i, &px.opts.call.text)
	if err != nil {
		return err
	}
	pr.out = append(pr.out, v)
	return nil
}

// keep copies raw, a children value read under a pin about to be let
// go, into the buffer of depth d, and returns where it sits there.
func (px *Expander) keep(d int, raw []byte) span {
	lo := len(px.kidBytes[d])
	px.kidBytes[d] = append(px.kidBytes[d], raw...)
	return span{lo, len(px.kidBytes[d])}
}

// expandKept expands, through the segments below, each children value
// kept at depth in turn; owners, when not nil, names the object that
// holds the i-th. The expansions run at depth+1 and below, so what
// depth's buffers hold stays put while they do.
func (px *Expander) expandKept(owners []object.OID, segs []string, depth int, out []tuple.Value) ([]tuple.Value, error) {
	var err error
	for i, k := range px.kids[depth] {
		var owner object.OID
		if owners != nil {
			owner = owners[i]
		}
		if out, err = px.expand(owner, px.kidBytes[depth][k.lo:k.hi], segs, depth+1, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// expandOIDs fetches the listed subobjects of owner and steps each one
// through the remaining segments, in OID-list order whatever order the
// fetch visits them in. The last segment is projected straight off the
// pinned page, into the subobject's place in out; an earlier one has its
// children value kept (keep), and the kept values are expanded once the
// whole list has been fetched, so a fetch and the expansions below it do
// not interleave.
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
		out = slices.Grow(out, len(oids))[:base+len(oids)]
		cur.vals = out[base:]
		clear(cur.vals)
	} else {
		px.kids[depth] = slices.Grow(px.kids[depth][:0], len(oids))[:len(oids)]
		px.kidBytes[depth] = px.kidBytes[depth][:0]
		clear(px.kids[depth])
	}
	// The one expansion operator: the view's page-ordered sweep of the
	// whole list, which below btree.BatchSortMin keys is the per-OID probe
	// loop and above it never reads more pages than that loop.
	err := px.st.View.ProbeOIDs(&px.probe, oids, px.take)
	if cur.rowErr != nil {
		return nil, cur.rowErr
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrExec, err)
	}
	if len(segs) == 1 {
		return out, nil
	}
	return px.expandKept(oids, segs[1:], depth, out)
}

// takeRecord steps one fetched subobject for the fetch in progress.
func (px *Expander) takeRecord(i int, rel *catalog.Relation, rec []byte) error {
	cur := &px.cur
	v, err := px.enter(rel, rec, cur.segs, cur.depth)
	if err != nil {
		cur.rowErr = err
		return err
	}
	if len(cur.segs) == 1 {
		cur.vals[i] = v
	} else {
		px.kids[cur.depth][i] = px.keep(cur.depth, v.Raw)
	}
	return nil
}

// enter reads the next segment from a stored record of rel the path has
// just reached — an OID's target, an inline member. The record is
// framing-checked before anything is read from it. The last segment's
// value is staged in the answer's text if it is a character value, and
// is the caller's own copy if not; an earlier one's children value is a
// view into rec.
func (px *Expander) enter(rel *catalog.Relation, rec []byte, segs []string, depth int) (tuple.Value, error) {
	if err := tuple.Check(rel.Schema, rec); err != nil {
		return tuple.Value{}, err
	}
	i, err := px.step(rel.Schema, rel.Name, segs, depth)
	if err != nil {
		return tuple.Value{}, err
	}
	if len(segs) > 1 {
		raw, err := tuple.FieldBytes(rel.Schema, rec, i)
		return tuple.BytesVal(raw), err
	}
	return px.opts.call.text.Field(rel.Schema, rec, i)
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
