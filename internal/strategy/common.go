package strategy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"corep/internal/btree"
	"corep/internal/buffer"
	"corep/internal/catalog"
	"corep/internal/engine"
	"corep/internal/object"
	"corep/internal/query"
	"corep/internal/tuple"
	"corep/internal/txn"
	"corep/internal/workload"
)

// parentRef is one qualifying ParentRel tuple: its key and its unit, a
// view into the retrieve's OID arena.
type parentRef struct {
	key  int64
	unit []object.OID
}

// storedParents clamps a query's key bounds to the keys ParentRel and
// ClusterRel hold, [0, NumParents-1], and counts the keys left (0: the
// query selects nothing). An open upper bound costs nothing to ask for.
func storedParents(db *workload.DB, lo, hi int64) (first, last int64, n int) {
	first, last = max(lo, 0), min(hi, int64(db.Cfg.NumParents)-1)
	return first, last, int(max(0, last-first+1))
}

// scratch is the working memory a retrieve borrows from scratchPool and
// gives back (release) when it returns, on every path: the scan phase's
// parent list and the OID arena its units are cut from, the unit value
// buffer DFSCACHE and SMART read cached and materialized units into
// (and BFS's probes their records), the temporary writers its levels
// dropped, relation tables emptied, for the next level or retrieve to
// reuse, the handles of its temporaries and their readers (temps), the
// merge join's inner cursor, DFSCLUST's group state, the values of a
// DFS over inner levels before they are copied into the Result and the
// OID list of the inner-level subobject it stands on at each depth, the
// keys of BFS's batched probe and its B-tree batch's visiting order, and
// the bookkeeping of ProbeBatch's grouped probes, with the records of a
// unit it materializes back to back in recs and each member's span of
// them in recAt. Nothing a Result holds aliases it.
type scratch struct {
	parents []parentRef
	oids    []object.OID
	value   []byte
	writers []*tempWriter
	temps   query.Arena
	inner   btree.Iterator
	clust   clustScan
	vals    []int64
	kids    [][]object.OID
	keys    []int64
	order   []int
	probe   catalog.Probe
	recs    []byte
	recAt   [][2]int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release gives s back to scratchPool: the temporaries' handles go back
// to the arena only now, after the retrieve has dropped them, and
// nothing kept refers to the retrieve's database or result.
func (s *scratch) release() {
	s.temps.Reset()
	s.inner = btree.Iterator{}
	s.clust = clustScan{unit: s.clust.unit[:0], local: s.clust.local[:0]}
	scratchPool.Put(s)
}

// tempWriter lends a writer over pool whose temporaries come from s's
// arena: one a dropped writer left behind if there is one, else a new
// one.
func (s *scratch) tempWriter(pool *buffer.Pool) *tempWriter {
	var w *tempWriter
	if n := len(s.writers); n > 0 {
		w, s.writers = s.writers[n-1], s.writers[:n-1]
	} else {
		w = &tempWriter{temps: make(map[uint16]*query.Int64Temp)}
		w.step = w.takeKids
	}
	w.pool, w.arena = pool, &s.temps
	return w
}

// dropWriter drops w's temporaries (tempWriter.drop) and keeps w, its
// tables emptied, for the next tempWriter call. It is nil-safe; w must
// not be used afterwards.
func (s *scratch) dropWriter(w *tempWriter) error {
	if w == nil {
		return nil
	}
	err := w.drop()
	clear(w.temps)
	*w = tempWriter{temps: w.temps, relOrder: w.relOrder[:0], step: w.step, kids: w.kids[:0], keys: w.keys[:0]}
	s.writers = append(s.writers, w)
	return err
}

// scanParents range-scans ParentRel for lo ≤ key ≤ hi and decodes each
// qualifying tuple's children attribute. The units land back to back in
// one arena, sc.oids: the retrieve's subobjects in probe order. Each
// qualifying tuple's key and unit, a view into the arena, lands in
// sc.parents. Both slices are lent: they are the retrieve's until it
// releases sc, and nothing in them aliases a page.
func scanParents(db *workload.DB, lo, hi int64, sc *scratch) error {
	childIdx := db.ParentSchema.MustIndex("children")
	_, _, n := storedParents(db, lo, hi)
	parents := slices.Grow(sc.parents[:0], n)
	oids := slices.Grow(sc.oids[:0], n*db.Cfg.SizeUnit)
	err := db.Parent.Tree.Range(lo, hi, func(key int64, payload []byte) (bool, error) {
		raw, err := tuple.FieldBytes(db.ParentSchema, payload, childIdx)
		if err != nil {
			return false, err
		}
		start := len(oids)
		if oids, err = object.AppendOIDs(oids, raw); err != nil {
			return false, err
		}
		parents = append(parents, parentRef{key: key, unit: oids[start:]})
		return true, nil
	})
	sc.parents, sc.oids = parents, oids
	if err != nil {
		return err
	}
	// A unit longer than SizeUnit moves the arena under the views cut
	// before it: cut them all again from the final one, each capped at
	// its own end so an append cannot reach its neighbour.
	off := 0
	for i := range parents {
		end := off + len(parents[i].unit)
		parents[i].unit = oids[off:end:end]
		off = end
	}
	return nil
}

// scanPhase is the first phase every scan-then-fetch strategy shares:
// range-scan the qualifying parents under the named span, into scratch
// taken from scratchPool, and charge the scan's I/O to the result's
// ParCost. The caller releases the scratch when its retrieve returns;
// on an error scanPhase has released it.
func scanPhase(db *workload.DB, q Query, span string) (*scratch, *Result, error) {
	par := beginIO(db.Core)
	sp := db.Obs.Start(span)
	sc := scratchPool.Get().(*scratch)
	if err := scanParents(db, q.Lo, q.Hi, sc); err != nil {
		sc.release()
		return nil, nil, err
	}
	sp.SetAttr("parents", int64(len(sc.parents)))
	sp.End()
	res := &Result{}
	res.Split.Par = par.end()
	return sc, res, nil
}

// firstErr sets *err to cleanup when *err is nil: a cleanup's error —
// a dropped temporary's disk.Free refusing a page — is reported by a
// retrieve that had none of its own.
func firstErr(err *error, cleanup error) {
	if *err == nil {
		*err = cleanup
	}
}

// childrenIdx returns the position of rel's children attribute, or -1:
// a reached relation that carries one is an inner level, whose tuples are
// walked through to their own subobjects, and one that does not is a
// last level, whose tuples are projected ("queries involving more than
// two dots … require more levels of relationships to be explored", §3).
func childrenIdx(rel *catalog.Relation) int { return rel.Schema.Index("children") }

// multiLevel reports whether db has an inner level.
func multiLevel(db *workload.DB) bool {
	return slices.ContainsFunc(db.Children, func(rel *catalog.Relation) bool { return childrenIdx(rel) >= 0 })
}

// appendChildren decodes the children attribute, at ci, of an
// inner-level tuple of rel onto dst.
func appendChildren(dst []object.OID, rel *catalog.Relation, ci int, payload []byte) ([]object.OID, error) {
	raw, err := tuple.FieldBytes(rel.Schema, payload, ci)
	if err != nil {
		return dst, err
	}
	return object.AppendOIDs(dst, raw)
}

// childAttr projects the query attribute from the record of last-level
// subobject oid, overlaid with the snapshot's version — the per-tuple
// step every strategy's last level ends in.
func childAttr(db *workload.DB, q Query, oid object.OID, payload []byte) (int64, error) {
	v, err := tuple.Int(db.ChildSchema, payload, q.AttrIdx)
	if err != nil {
		return 0, err
	}
	return overlayInt(q.Snap, oid, q.AttrIdx, v), nil
}

// materializeUnit appends the cache value of unit — its members' records
// framed in unit order — to dst: DFSCACHE's materialization (§3.2). The
// paper's mode, one probe per member, frames each record straight off
// its pinned leaf: the descent and pin of Tree.Get without the copy.
// Config.ProbeBatch visits the members in page order instead, in sc's
// probe, so that arm copies the records into sc and frames them once the
// sweep is done. Under a snapshot a member the reader sees a newer
// version of is patched with the overlay before it is framed: the cached
// value must really be current as of the epoch recorded with the entry.
func materializeUnit(db *workload.DB, sc *scratch, dst []byte, unit []object.OID, snap *txn.Snapshot) ([]byte, error) {
	if db.Cfg.ProbeBatch {
		recs, at := sc.recs[:0], slices.Grow(sc.recAt[:0], len(unit))[:len(unit)]
		clear(at)
		err := db.Cat.ProbeOIDs(&sc.probe, unit, func(i int, _ *catalog.Relation, payload []byte) error {
			at[i] = [2]int{len(recs), len(recs) + len(payload)}
			recs = append(recs, payload...)
			return nil
		})
		sc.recs, sc.recAt = recs, at
		if err != nil {
			return dst, err
		}
		for i, oid := range unit {
			rec, err := overlayRec(db, snap, oid, recs[at[i][0]:at[i][1]])
			if err != nil {
				return dst, err
			}
			dst = appendUnitMember(dst, rec)
		}
		return dst, nil
	}
	for _, oid := range unit {
		rel, err := db.ChildByRelID(oid.Rel())
		if err != nil {
			return dst, err
		}
		err = rel.Tree.View(oid.Key(), func(payload []byte) error {
			rec, err := overlayRec(db, snap, oid, payload)
			if err != nil {
				return err
			}
			dst = appendUnitMember(dst, rec)
			return nil
		})
		if err != nil {
			return dst, fmt.Errorf("strategy: subobject %v: %w", oid, err)
		}
	}
	return dst, nil
}

// applyUpdate is every strategy's Update: write op through the active
// path (inPlace is the strategy's layout writer, used when versioning
// is off), then publish it, invalidating the cached units that hold an
// I-lock on any oid of invalidate (nil for strategies that keep no
// cache). The invalidation runs even when an in-place apply failed
// part-way — some targets may already hold new values, so every touched
// unit must leave the cache or a later lookup would serve the old value.
func applyUpdate(db *workload.DB, op workload.Op, inPlace func(workload.Op) error, invalidate []object.OID) error {
	u, applyErr := db.ApplyUpdate(op, inPlace)
	pubErr := db.Publish(u, invalidate, nil)
	if applyErr != nil {
		return applyErr
	}
	return pubErr
}

// overlayInt returns the snapshot's version of the projected value for
// oid when one exists and the query projects ret1 — the only field
// updates modify, so ret2/ret3 projections never need the overlay.
// Nil snapshot: v unchanged (the serial path pays one nil check).
func overlayInt(snap *txn.Snapshot, oid object.OID, attrIdx int, v int64) int64 {
	if snap == nil || attrIdx != workload.FieldRet1 {
		return v
	}
	if nv, ok := snap.Read(oid); ok {
		return nv
	}
	return v
}

// overlayRec returns a copy of a full child record with the snapshot's
// ret1 version of oid patched in, when one exists; otherwise the record
// is returned unchanged. DFSCACHE patches materialized records before
// caching them, so a cached value really is current as of the reader's
// snapshot (the cache records that epoch as the entry's M watermark).
func overlayRec(db *workload.DB, snap *txn.Snapshot, oid object.OID, rec []byte) ([]byte, error) {
	if snap == nil {
		return rec, nil
	}
	nv, ok := snap.Read(oid)
	if !ok {
		return rec, nil
	}
	rec = append([]byte(nil), rec...)
	return rec, tuple.PutInt(db.ChildSchema, rec, workload.FieldRet1, nv)
}

// ioSpan measures the disk I/O of a code span, on any database over the
// engine core.
type ioSpan struct {
	core  *engine.Core
	start int64
}

func beginIO(c *engine.Core) ioSpan {
	return ioSpan{core: c, start: c.Disk.Stats().Total()}
}

func (s ioSpan) end() int64 {
	return s.core.Disk.Stats().Total() - s.start
}

// tempWriter routes subobject OIDs into one temporary per child
// relation (§6.2). Consecutive OIDs of the same relation form a run
// appended a page at a time under one pin of that temporary's tail page;
// a change of relation closes the run before the other temporary is
// touched or created, so pages are used in exactly the order of a
// per-OID Append loop. close must be called before the temporaries are
// read.
type tempWriter struct {
	pool     *buffer.Pool
	arena    *query.Arena // lends the temporaries' handles
	temps    map[uint16]*query.Int64Temp
	relOrder []uint16 // relations in order of first appearance
	// spare is a temporary created ahead of the relation that will own
	// it (reserve); the first new relation takes it.
	spare *query.Int64Temp

	cur  uint16
	run  query.TempAppender
	open bool
	keys []int64 // the keys of the run being appended

	// step is takeKids bound once, the inner level's step of every join
	// that fills the writer, with the relation it reaches and the
	// position of its children attribute in kidRel and kidIdx, and each
	// reached tuple's list decoded into kids.
	step   levelStep
	kidRel *catalog.Relation
	kidIdx int
	kids   []object.OID
}

// reserve creates the writer's first temporary now rather than at its
// first OID. A level below the first fills while the level above is
// being joined, and ext-levels' counted cells have its temporary in the
// pool before that join's sort and probes start: created at the first
// append instead, a two-level BFS at NumTop 2000 reads 166,560 pages for
// the golden file's 167,640 (BFSNODUP 68,280 for 69,360).
func (w *tempWriter) reserve() (err error) {
	w.spare, err = w.arena.NewTemp(w.pool)
	return err
}

// add appends the keys of oids to their relations' temporaries, each
// stretch of one relation's OIDs in one AppendAll.
func (w *tempWriter) add(oids []object.OID) error {
	for len(oids) > 0 {
		rel := oids[0].Rel()
		if !w.open || rel != w.cur {
			w.close()
			tmp := w.temps[rel]
			if tmp == nil {
				if tmp, w.spare = w.spare, nil; tmp == nil {
					var err error
					if tmp, err = w.arena.NewTemp(w.pool); err != nil {
						return err
					}
				}
				w.temps[rel] = tmp
				w.relOrder = append(w.relOrder, rel)
			}
			w.cur, w.run, w.open = rel, tmp.Appender(), true
		}
		n := 0
		for w.keys = w.keys[:0]; n < len(oids) && oids[n].Rel() == rel; n++ {
			w.keys = append(w.keys, oids[n].Key())
		}
		if err := w.run.AppendAll(w.keys); err != nil {
			return err
		}
		oids = oids[n:]
	}
	return nil
}

// takeChildren is an inner level's step: append the children of each
// reached tuple of rel, whose children attribute sits at ci, to w — one
// run per tuple, closed before the join that reached it touches the pool
// again. The step is w's own (takeKids), so a join pays nothing for it.
func (w *tempWriter) takeChildren(rel *catalog.Relation, ci int) levelStep {
	w.kidRel, w.kidIdx = rel, ci
	return w.step
}

func (w *tempWriter) takeKids(_ int64, payload []byte) (_ bool, err error) {
	if w.kids, err = appendChildren(w.kids[:0], w.kidRel, w.kidIdx, payload); err != nil {
		return false, err
	}
	defer w.close()
	if err := w.add(w.kids); err != nil {
		return false, err
	}
	return true, nil
}

// close ends the open run, if any. It is idempotent.
func (w *tempWriter) close() {
	if w.open {
		w.run.Close()
		w.open = false
	}
}

// drop closes the open run and frees every temporary the writer made,
// the reserved one included, returning every page-free error joined.
func (w *tempWriter) drop() error {
	w.close()
	var err error
	for _, rel := range w.relOrder {
		err = errors.Join(err, w.temps[rel].Drop())
	}
	if w.spare != nil {
		err = errors.Join(err, w.spare.Drop())
	}
	return err
}

// distinctTemp copies the distinct values of a sorted temporary into a
// new one — the duplicate-removal step of BFSNODUP (§3.1 [3]). The copy
// is lent by s's arena. On an error the copy is dropped.
func (s *scratch) distinctTemp(pool *buffer.Pool, sorted *query.Int64Temp) (_ *query.Int64Temp, err error) {
	distinct, err := s.temps.NewTemp(pool)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			distinct.Drop()
		}
	}()
	// The sorted side is read whole, into s's key buffer, before the
	// first append, so the run below is the only pool traffic after it.
	vs, err := sorted.ReadAll(s.keys[:0])
	s.keys = vs
	if err != nil {
		return nil, err
	}
	w := distinct.Appender()
	defer w.Close()
	if err := w.AppendAll(query.Distinct(vs)); err != nil {
		return nil, err
	}
	return distinct, nil
}

// levelStep is what a join does with each tuple of the relation it
// reaches, whichever way it joins: a last level projects the tuple into
// the result, an inner level appends its children to the next level's
// temporaries. false or an error stops the join.
type levelStep func(key int64, payload []byte) (bool, error)

// project is a last level's step: append the query attribute of each
// reached tuple of rel to res.
func project(db *workload.DB, rel *catalog.Relation, q Query, res *Result) levelStep {
	return func(key int64, payload []byte) (bool, error) {
		v, err := childAttr(db, q, object.NewOID(rel.ID, key), payload)
		if err != nil {
			return false, err
		}
		res.Values = append(res.Values, v)
		return true, nil
	}
}

// mergeJoinChild merge-joins a sorted temporary of keys with rel's leaf
// scan (§3.1 [2]), handing every match to take. The leaf cursor is s's,
// the temporary's reader is lent by s's arena.
func (s *scratch) mergeJoinChild(db *workload.DB, rel *catalog.Relation, sorted *query.Int64Temp, take levelStep) error {
	if err := rel.Tree.SeekFirstInto(&s.inner); err != nil {
		return err
	}
	defer s.inner.Close()
	outer := s.temps.Iter(sorted)
	defer outer.Close()
	return query.MergeJoin(db.Obs, outer, &s.inner, take)
}

// --- cached-unit value codec ---
//
// A cached unit's value is the concatenation of its members' ChildRel
// records, each length-prefixed, in unit order. "Basically, the 'value'
// ... of a subobject is stored with the referencing object" — here with
// the unit (§2.3).

// appendUnitMember frames one member record onto a cache value.
func appendUnitMember(value, rec []byte) []byte {
	value = binary.LittleEndian.AppendUint16(value, uint16(len(rec)))
	return append(value, rec...)
}

// decodeUnitValue yields each framed member record. The callback's rec
// aliases value.
func decodeUnitValue(value []byte, fn func(rec []byte) error) error {
	for len(value) > 0 {
		if len(value) < 2 {
			return fmt.Errorf("strategy: truncated unit value")
		}
		l := int(binary.LittleEndian.Uint16(value))
		value = value[2:]
		if len(value) < l {
			return fmt.Errorf("strategy: truncated unit member record")
		}
		if err := fn(value[:l]); err != nil {
			return err
		}
		value = value[l:]
	}
	return nil
}

// projectUnitValue extracts the query attribute from every member record
// of a cached unit value.
func projectUnitValue(db *workload.DB, value []byte, attrIdx int, out *[]int64) error {
	return decodeUnitValue(value, func(rec []byte) error {
		v, err := tuple.Int(db.ChildSchema, rec, attrIdx)
		if err != nil {
			return err
		}
		*out = append(*out, v)
		return nil
	})
}
