package strategy

import (
	"encoding/binary"
	"fmt"
	"slices"

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

// scanParents range-scans ParentRel for lo ≤ key ≤ hi and decodes each
// qualifying tuple's children attribute. The units land back to back in
// one arena, returned whole as oids: the retrieve's subobjects in probe
// order. Both slices are the caller's; nothing in them aliases a page.
func scanParents(db *workload.DB, lo, hi int64) (parents []parentRef, oids []object.OID, err error) {
	childIdx := db.ParentSchema.MustIndex("children")
	_, _, n := storedParents(db, lo, hi)
	parents = make([]parentRef, 0, n)
	oids = make([]object.OID, 0, n*db.Cfg.SizeUnit)
	err = db.Parent.Tree.Range(lo, hi, func(key int64, payload []byte) (bool, error) {
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
	if err != nil {
		return nil, nil, err
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
	return parents, oids, nil
}

// scanPhase is the first phase every scan-then-fetch strategy shares:
// range-scan the qualifying parents under the named span and charge the
// scan's I/O to the result's ParCost.
func scanPhase(db *workload.DB, q Query, span string) ([]parentRef, []object.OID, *Result, error) {
	par := beginIO(db.Core)
	sp := db.Obs.Start(span)
	parents, oids, err := scanParents(db, q.Lo, q.Hi)
	if err != nil {
		return nil, nil, nil, err
	}
	sp.SetAttr("parents", int64(len(parents)))
	sp.End()
	res := &Result{}
	res.Split.Par = par.end()
	return parents, oids, res, nil
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
// Config.ProbeBatch visits the members in page order instead, so that
// arm holds the records until the sweep is done. Under a snapshot a
// member the reader sees a newer version of is patched with the overlay
// before it is framed: the cached value must really be current as of
// the epoch recorded with the entry.
func materializeUnit(db *workload.DB, dst []byte, unit []object.OID, snap *txn.Snapshot) ([]byte, error) {
	if db.Cfg.ProbeBatch {
		recs := make([][]byte, len(unit))
		err := db.Cat.ProbeOIDs(unit, func(i int, _ *catalog.Relation, payload []byte) error {
			recs[i] = append([]byte(nil), payload...)
			return nil
		})
		if err != nil {
			return dst, err
		}
		for i, oid := range unit {
			rec, err := overlayRec(db, snap, oid, recs[i])
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

// overlayRec re-encodes a full child record with the snapshot's ret1
// version of oid patched in, when one exists; otherwise the record is
// returned unchanged. DFSCACHE patches materialized records before
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
	return workload.PatchRet1(db.ChildSchema, rec, workload.FieldRet1, nv)
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
// appended under one pin of that temporary's tail page; a change of
// relation closes the run before the other temporary is touched or
// created, so pages are used in exactly the order of a per-OID Append
// loop. close must be called before the temporaries are read.
type tempWriter struct {
	pool     *buffer.Pool
	temps    map[uint16]*query.Int64Temp
	relOrder []uint16 // relations in order of first appearance
	// spare is a temporary created ahead of the relation that will own
	// it (reserve); the first new relation takes it.
	spare *query.Int64Temp

	cur  uint16
	run  query.TempAppender
	open bool
}

func newTempWriter(pool *buffer.Pool) *tempWriter {
	return &tempWriter{pool: pool, temps: make(map[uint16]*query.Int64Temp)}
}

// reserve creates the writer's first temporary now rather than at its
// first OID. A level below the first fills while the level above is
// being joined, and ext-levels' counted cells have its temporary in the
// pool before that join's sort and probes start: created at the first
// append instead, a two-level BFS at NumTop 2000 reads 166,560 pages for
// the golden file's 167,640 (BFSNODUP 68,280 for 69,360).
func (w *tempWriter) reserve() (err error) {
	w.spare, err = query.NewInt64Temp(w.pool)
	return err
}

func (w *tempWriter) add(oid object.OID) error {
	if rel := oid.Rel(); !w.open || rel != w.cur {
		w.close()
		tmp := w.temps[rel]
		if tmp == nil {
			if tmp, w.spare = w.spare, nil; tmp == nil {
				var err error
				if tmp, err = query.NewInt64Temp(w.pool); err != nil {
					return err
				}
			}
			w.temps[rel] = tmp
			w.relOrder = append(w.relOrder, rel)
		}
		w.cur, w.run, w.open = rel, tmp.Appender(), true
	}
	return w.run.Append(oid.Key())
}

// takeChildren is an inner level's step: append the children of each
// reached tuple of rel, whose children attribute sits at ci, to w — one
// run per tuple, closed before the join that reached it touches the pool
// again.
func (w *tempWriter) takeChildren(rel *catalog.Relation, ci int) levelStep {
	var kids []object.OID
	return func(_ int64, payload []byte) (_ bool, err error) {
		if kids, err = appendChildren(kids[:0], rel, ci, payload); err != nil {
			return false, err
		}
		defer w.close()
		for _, oid := range kids {
			if err := w.add(oid); err != nil {
				return false, err
			}
		}
		return true, nil
	}
}

// close ends the open run, if any. It is idempotent.
func (w *tempWriter) close() {
	if w.open {
		w.run.Close()
		w.open = false
	}
}

// distinctTemp copies the distinct values of a sorted temporary into a
// new one — the duplicate-removal step of BFSNODUP (§3.1 [3]).
func distinctTemp(pool *buffer.Pool, sorted *query.Int64Temp) (*query.Int64Temp, error) {
	distinct, err := query.NewInt64Temp(pool)
	if err != nil {
		return nil, err
	}
	// The sorted side is read into memory by the first Next, before the
	// first append, so the run below is the only pool traffic.
	uniq := query.NewDistinct(sorted.Iter())
	w := distinct.Appender()
	defer w.Close()
	for {
		v, ok, err := uniq.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return distinct, nil
		}
		if err := w.Append(v); err != nil {
			return nil, err
		}
	}
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
// scan (§3.1 [2]), handing every match to take. The scan never passes
// the temporary's maximum: leaf readahead (when a prefetcher is
// attached) stops seeding there.
func mergeJoinChild(db *workload.DB, rel *catalog.Relation, sorted *query.Int64Temp, take levelStep) error {
	it, err := rel.Tree.SeekFirst()
	if err != nil {
		return err
	}
	defer it.Close()
	if mx, ok := sorted.Max(); ok {
		defer rel.Tree.AttachChainPrefetch(it, mx)()
	}
	return query.MergeJoin(db.Obs, sorted.Iter(), it, take)
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
