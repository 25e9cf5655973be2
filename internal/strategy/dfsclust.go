package strategy

import (
	"fmt"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/storage"
	"corep/internal/tuple"
	"corep/internal/workload"
)

// dfsclust is depth-first search in the presence of clustering (§3.3):
// the qualifying range of ClusterRel is scanned by cluster#. Rows with
// the same cluster# form one physical group — a parent followed by the
// subobjects clustered with it — so a parent's home subobjects cost no
// extra I/O. Subobjects living elsewhere are fetched, as each group
// completes, with a random access through the static ISAM index on
// ClusterRel.OID; whether that access really hits the disk is the
// buffer pool's honest decision (nearby groups are still buffered,
// distant ones are not).
//
// The scan cost grows as clustering approaches ideal (more child tuples
// ride inside the parent range — the ParCost increase of Figure 5a),
// while the random accesses shrink; with OverlapFactor > 1 units
// fragment and the random accesses multiply (Figure 7).
type dfsclust struct{}

func (dfsclust) Kind() Kind { return DFSCLUST }

func (dfsclust) Retrieve(db *workload.DB, q Query) (*Result, error) {
	parentRelID := db.Parent.ID
	oidIdx := db.ClusterSchema.MustIndex("OID")
	childrenIdx := db.ClusterSchema.MustIndex("children")
	// In ClusterSchema the ret fields sit one position later than in
	// ChildSchema (cluster# occupies field 0).
	attrIdx := q.AttrIdx + 1

	res := &Result{}
	var scanIO, fetchIO int64
	// Scan and fetch interleave per cluster group, so one span covers the
	// whole retrieve; the ParCost/ChildCost split travels as attributes.
	// The parent range rides along too — the reclustering heat tracker
	// feeds on it through the span sink.
	sp := db.Obs.Start("strategy.dfsclust/retrieve")
	defer func() {
		sp.SetAttr("lo", q.Lo)
		sp.SetAttr("hi", q.Hi)
		sp.SetAttr("par_io", scanIO)
		sp.SetAttr("child_io", fetchIO)
		sp.SetAttr("values", int64(len(res.Values)))
		sp.End()
	}()

	// Online reclustering, when enabled, may have migrated some of this
	// range's units onto shared extent pages; the placement map is
	// consulted per key below, at the reader's snapshot epoch.
	rs := db.Reclust
	snapE := q.Snap.Epoch()

	// One cluster# group: the parent's unit and the locally clustered
	// subobject values.
	var (
		unit   []object.OID
		local  = map[object.OID]int64{}
		hasPar = false
		curKey = int64(-1)
	)
	// resolve answers the current group, charging index/data fetches to
	// ChildCost. With a prefetcher attached it resolves the group's
	// non-local probes through the ISAM index first: the RIDs' data pages,
	// deduplicated in first-occurrence order, become the prefetch plan, so
	// upcoming fetches stage while the current ones are consumed.
	resolve := func() error {
		if !hasPar {
			return nil
		}
		span := beginIO(db.Core)
		var (
			ch     *buffer.Chain
			rids   map[object.OID]storage.RID
			placed map[object.OID]storage.RID
		)
		if rs != nil {
			for _, oid := range unit {
				if _, ok := local[oid]; ok {
					continue
				}
				if e, ok := rs.Place.Lookup(oid, snapE); ok {
					if placed == nil {
						placed = map[object.OID]storage.RID{}
					}
					placed[oid] = e.RID
				}
			}
		}
		if pf := db.Pool.Prefetcher(); pf != nil {
			var keys []int64
			seen := map[disk.PageID]bool{}
			var plan []disk.PageID
			for _, oid := range unit {
				if _, ok := local[oid]; ok {
					continue
				}
				// Migrated members' pages are known without an index
				// probe: they lead the prefetch plan.
				if prid, ok := placed[oid]; ok {
					if !seen[prid.Page] {
						seen[prid.Page] = true
						plan = append(plan, prid.Page)
					}
					continue
				}
				keys = append(keys, int64(oid))
			}
			if len(keys) > 1 {
				rr, err := db.ClusterRel.Index.ProbeBatch(keys)
				if err != nil {
					return fmt.Errorf("strategy: clustered probe batch: %w", err)
				}
				rids = make(map[object.OID]storage.RID, len(keys))
				for i, rid := range rr {
					rids[object.OID(keys[i])] = rid
					if !seen[rid.Page] {
						seen[rid.Page] = true
						plan = append(plan, rid.Page)
					}
				}
			}
			if len(plan) > 1 {
				psp := db.Obs.Start("prefetch.probeplan")
				psp.SetAttr("pages", int64(len(plan)))
				psp.End()
				ch = pf.Start(plan)
				defer ch.Finish()
			}
		}
		for _, oid := range unit {
			if v, ok := local[oid]; ok {
				res.Values = append(res.Values, overlayInt(q.Snap, oid, q.AttrIdx, v))
				continue
			}
			if prid, ok := placed[oid]; ok {
				payload, err := db.ReadPlaced(prid)
				if err != nil {
					return err
				}
				ch.Consumed(prid.Page)
				av, err := tuple.DecodeField(db.ClusterSchema, payload, attrIdx)
				if err != nil {
					return err
				}
				res.Values = append(res.Values, overlayInt(q.Snap, oid, q.AttrIdx, av.Int))
				continue
			}
			rid, ok := rids[oid]
			if !ok {
				var err error
				rid, err = db.ClusterRel.Index.Probe(int64(oid))
				if err != nil {
					return fmt.Errorf("strategy: clustered subobject %v: %w", oid, err)
				}
			}
			_, payload, err := db.ClusterRel.Tree.GetAt(rid)
			if err != nil {
				return err
			}
			ch.Consumed(rid.Page)
			av, err := tuple.DecodeField(db.ClusterSchema, payload, attrIdx)
			if err != nil {
				return err
			}
			res.Values = append(res.Values, overlayInt(q.Snap, oid, q.AttrIdx, av.Int))
		}
		fetchIO += span.end()
		return nil
	}

	var scanSpan ioSpan
	scanCB := func(key int64, payload []byte) (bool, error) {
		if key != curKey {
			scanIO += scanSpan.end()
			if err := resolve(); err != nil {
				return false, err
			}
			unit, hasPar = nil, false
			local = map[object.OID]int64{}
			curKey = key
			scanSpan = beginIO(db.Core)
		}
		ov, err := tuple.DecodeField(db.ClusterSchema, payload, oidIdx)
		if err != nil {
			return false, err
		}
		oid := object.OID(ov.Int)
		if oid.Rel() == parentRelID {
			cv, err := tuple.DecodeField(db.ClusterSchema, payload, childrenIdx)
			if err != nil {
				return false, err
			}
			oids, err := object.DecodeOIDs(cv.Raw)
			if err != nil {
				return false, err
			}
			unit = oids
			hasPar = true
			return true, nil
		}
		av, err := tuple.DecodeField(db.ClusterSchema, payload, attrIdx)
		if err != nil {
			return false, err
		}
		local[oid] = av.Int
		return true, nil
	}
	// scanRun range-scans ClusterRel over a contiguous run of cluster#
	// keys and flushes the final group — the historic whole-query scan is
	// scanRun(q.Lo, q.Hi).
	scanRun := func(a, b int64) error {
		scanSpan = beginIO(db.Core)
		err := db.ClusterRel.Tree.Range(a, b, scanCB)
		if err != nil {
			return err
		}
		scanIO += scanSpan.end()
		if err := resolve(); err != nil {
			return err
		}
		unit, hasPar, curKey = nil, false, -1
		local = map[object.OID]int64{}
		return nil
	}

	if rs == nil {
		if err := scanRun(q.Lo, q.Hi); err != nil {
			return nil, err
		}
	} else {
		// A parent whose whole unit has migrated serves straight off the
		// extent: the parent row's copy carries the children list, the
		// members resolve through their placements, and the B-tree scan
		// skips the key entirely. Residual runs of un-migrated keys scan
		// as before, so placed and scanned groups interleave in key
		// order — result order matches the historic scan exactly.
		pending := int64(-1)
		for k := q.Lo; k <= q.Hi; k++ {
			e, ok := rs.Place.Lookup(object.NewOID(parentRelID, k), snapE)
			if !ok {
				if pending < 0 {
					pending = k
				}
				continue
			}
			if pending >= 0 {
				if err := scanRun(pending, k-1); err != nil {
					return nil, err
				}
				pending = -1
			}
			span := beginIO(db.Core)
			payload, err := db.ReadPlaced(e.RID)
			if err != nil {
				return nil, err
			}
			cv, err := tuple.DecodeField(db.ClusterSchema, payload, childrenIdx)
			if err != nil {
				return nil, err
			}
			oids, err := object.DecodeOIDs(cv.Raw)
			if err != nil {
				return nil, err
			}
			scanIO += span.end()
			unit, hasPar, curKey = oids, true, k
			if err := resolve(); err != nil {
				return nil, err
			}
			unit, hasPar, curKey = nil, false, -1
		}
		if pending >= 0 {
			if err := scanRun(pending, q.Hi); err != nil {
				return nil, err
			}
		}
	}
	res.Split.Par = scanIO
	res.Split.Child = fetchIO
	return res, nil
}

func (dfsclust) Update(db *workload.DB, op workload.Op) error {
	return applyUpdate(db, op, db.ApplyUpdateCluster, nil)
}
