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

// fetchChildAttr probes the child relation for oid and projects the
// query attribute — the per-subobject step of every depth-first
// strategy.
func fetchChildAttr(db *workload.DB, oid object.OID, attrIdx int) (int64, error) {
	rel, err := db.ChildByRelID(oid.Rel())
	if err != nil {
		return 0, err
	}
	rec, err := rel.Tree.Get(oid.Key())
	if err != nil {
		return 0, fmt.Errorf("strategy: subobject %v: %w", oid, err)
	}
	return tuple.Int(db.ChildSchema, rec, attrIdx)
}

// fetchChildAttrs probes the child relations for every OID of oids and
// stores the projected attribute at the matching index of out
// (len(out) == len(oids)). Probes go through the catalog's grouped,
// page-ordered ProbeOIDs, so a random probe set becomes one sorted sweep
// per relation while the output order stays exactly that of a per-OID
// fetchChildAttr loop. Config.ProbeBatch=false falls back to that loop,
// reproducing the paper's one-probe-at-a-time INGRES behaviour.
func fetchChildAttrs(db *workload.DB, oids []object.OID, attrIdx int, out []int64) error {
	if !db.Cfg.ProbeBatch {
		for i, oid := range oids {
			v, err := fetchChildAttr(db, oid, attrIdx)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	}
	return db.Cat.ProbeOIDs(oids, func(i int, _ *catalog.Relation, payload []byte) error {
		v, err := tuple.Int(db.ChildSchema, payload, attrIdx)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
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

// overlayValues patches a batch of projected values in place with the
// snapshot's versions (out[i] belongs to oids[i]).
func overlayValues(snap *txn.Snapshot, oids []object.OID, attrIdx int, out []int64) {
	if snap == nil || attrIdx != workload.FieldRet1 {
		return
	}
	for i, oid := range oids {
		if v, ok := snap.Read(oid); ok {
			out[i] = v
		}
	}
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

	cur  uint16
	run  query.TempAppender
	open bool
}

func newTempWriter(pool *buffer.Pool) *tempWriter {
	return &tempWriter{pool: pool, temps: make(map[uint16]*query.Int64Temp)}
}

func (w *tempWriter) add(oid object.OID) error {
	if rel := oid.Rel(); !w.open || rel != w.cur {
		w.close()
		tmp := w.temps[rel]
		if tmp == nil {
			var err error
			if tmp, err = query.NewInt64Temp(w.pool); err != nil {
				return err
			}
			w.temps[rel] = tmp
			w.relOrder = append(w.relOrder, rel)
		}
		w.cur, w.run, w.open = rel, tmp.Appender(), true
	}
	return w.run.Append(oid.Key())
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

// mergeJoinChild merge-joins a sorted temporary of keys with rel's leaf
// scan (§3.1 [2]), appending the projected query attribute of every
// match to res. The scan never passes the temporary's maximum: leaf
// readahead (when a prefetcher is attached) stops seeding there.
func mergeJoinChild(db *workload.DB, rel *catalog.Relation, sorted *query.Int64Temp, q Query, res *Result) error {
	it, err := rel.Tree.SeekFirst()
	if err != nil {
		return err
	}
	defer it.Close()
	if mx, ok := sorted.Max(); ok {
		defer rel.Tree.AttachChainPrefetch(it, mx)()
	}
	// Every outer value matches at most once.
	res.Values = slices.Grow(res.Values, sorted.Count())
	return query.MergeJoin(db.Obs, sorted.Iter(), it, func(key int64, payload []byte) (bool, error) {
		v, err := tuple.Int(db.ChildSchema, payload, q.AttrIdx)
		if err != nil {
			return false, err
		}
		res.Values = append(res.Values, overlayInt(q.Snap, object.NewOID(rel.ID, key), q.AttrIdx, v))
		return true, nil
	})
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
