package strategy

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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
	first, last, n := storedParents(db, q.Lo, q.Hi)
	res := &Result{Values: make([]int64, 0, n*db.Cfg.SizeUnit)}
	// Everything the group scan reuses from one cluster# group to the
	// next lives in this call: strategies are shared by concurrent
	// clients.
	s := &clustScan{
		db:          db,
		q:           q,
		res:         res,
		parentRelID: db.Parent.ID,
		oidIdx:      db.ClusterSchema.MustIndex("OID"),
		childrenIdx: db.ClusterSchema.MustIndex("children"),
		// In ClusterSchema the ret fields sit one position later than in
		// ChildSchema (cluster# occupies field 0).
		attrIdx: q.AttrIdx + 1,
		// Online reclustering may have migrated some of this range's units
		// onto shared extent pages; the core's placements are consulted
		// per key, at the reader's snapshot epoch.
		snapE: q.Snap.Epoch(),
		local: make([]localVal, 0, db.Cfg.SizeUnit),
	}
	// Scan and fetch interleave per cluster group, so one span covers the
	// whole retrieve; the ParCost/ChildCost split travels as attributes.
	sp := db.Obs.Start("strategy.dfsclust/retrieve")
	defer func() {
		sp.SetAttr("lo", q.Lo)
		sp.SetAttr("hi", q.Hi)
		sp.SetAttr("par_io", s.scanIO)
		sp.SetAttr("child_io", s.fetchIO)
		sp.SetAttr("values", int64(len(res.Values)))
		sp.End()
		db.TouchRange(first, last) // the reclustering heat: every parent asked for
	}()

	// A parent whose whole unit has migrated serves straight off the
	// extent: the parent row's copy carries the children list, the members
	// resolve through their placements, and the B-tree scan skips the key
	// entirely. Residual runs of un-migrated keys scan as before, so
	// placed and scanned groups interleave in key order — result order
	// matches the historic scan exactly. The walk covers the keys
	// ClusterRel holds, not the query's bounds: an open range ends where
	// the relation does.
	pending, anyPlaced := first, db.Placements() > 0
	for k := first; anyPlaced && k <= last; k++ {
		rid, ok := db.Placed(object.NewOID(s.parentRelID, k), s.snapE)
		if !ok {
			continue
		}
		if pending < k {
			if err := s.scanRun(pending, k-1); err != nil {
				return nil, err
			}
		}
		pending = k + 1
		span := beginIO(db.Core)
		payload, err := db.ReadPlaced(rid)
		if err != nil {
			return nil, err
		}
		s.reset(k) // a migrated parent has no rows riding along
		if err := s.takeUnit(payload); err != nil {
			return nil, err
		}
		s.scanIO += span.end()
		if err := s.resolve(); err != nil {
			return nil, err
		}
	}
	var err error
	switch {
	case pending == first: // nothing served off the extent: the historic whole-query scan
		err = s.scanRun(q.Lo, q.Hi)
	case pending <= last:
		err = s.scanRun(pending, last)
	}
	if err != nil {
		return nil, err
	}
	res.Split.Par = s.scanIO
	res.Split.Child = s.fetchIO
	return res, nil
}

// clustScan is the state of one DFSCLUST retrieve. The group fields
// describe the cluster# group being read and are reused, storage and
// all, for the next one; only res outlives the retrieve, and it holds
// integers — nothing here or there aliases a page.
type clustScan struct {
	db  *workload.DB
	q   Query
	res *Result

	parentRelID                  uint16
	oidIdx, childrenIdx, attrIdx int
	snapE                        uint64

	scanIO, fetchIO int64
	scanSpan        ioSpan

	// One cluster# group: the parent's unit, and the locally clustered
	// subobjects' projected values in physical order.
	curKey int64
	hasPar bool
	unit   []object.OID
	local  []localVal
	// Per resolve, parallel to unit: where each member's value comes
	// from; keys and plan are the prefetch branch's probe list and pages.
	members []member
	keys    []int64
	plan    []disk.PageID
}

// localVal is one subobject row of the current group: its OID and the
// projected attribute.
type localVal struct {
	oid object.OID
	val int64
}

// member is how resolve answers one unit member.
type member struct {
	from uint8
	val  int64       // fromGroup
	rid  storage.RID // fromExtent, fromTree
}

const (
	fromIndex  uint8 = iota // not located yet: ISAM probe, then the tree
	fromGroup               // rode along the scan
	fromExtent              // migrated: read through its placement
	fromTree                // RID already probed for the prefetch plan
)

// linearProbeMax is the group size up to which lookup scans the pairs;
// a unit of the paper's size (5) never leaves it.
const linearProbeMax = 16

// reset begins the group of cluster# key, keeping the last one's storage.
func (s *clustScan) reset(key int64) {
	s.curKey, s.hasPar = key, false
	s.unit, s.local = s.unit[:0], s.local[:0]
}

// takeUnit makes the parent row rec the current group's parent: its
// children list is copied out of rec into the unit buffer.
func (s *clustScan) takeUnit(rec []byte) error {
	raw, err := tuple.FieldBytes(s.db.ClusterSchema, rec, s.childrenIdx)
	if err != nil {
		return err
	}
	if s.unit, err = object.AppendOIDs(s.unit[:0], raw); err != nil {
		return err
	}
	s.hasPar = true
	return nil
}

// row is the ClusterRel cursor callback: payload is a view into the
// pinned leaf, and everything kept from it is copied before returning.
func (s *clustScan) row(key int64, payload []byte) (bool, error) {
	if key != s.curKey {
		s.scanIO += s.scanSpan.end()
		if err := s.resolve(); err != nil {
			return false, err
		}
		s.reset(key)
		s.scanSpan = beginIO(s.db.Core)
	}
	ov, err := tuple.Int(s.db.ClusterSchema, payload, s.oidIdx)
	if err != nil {
		return false, err
	}
	oid := object.OID(ov)
	if oid.Rel() == s.parentRelID {
		return true, s.takeUnit(payload)
	}
	av, err := tuple.Int(s.db.ClusterSchema, payload, s.attrIdx)
	if err != nil {
		return false, err
	}
	s.local = append(s.local, localVal{oid, av})
	return true, nil
}

// lookup finds oid among the group's local rows, whatever physical order
// they arrived in; the row scanned last wins. Small groups are probed
// linearly; larger ones were put in OID order by resolve and are
// searched.
func (s *clustScan) lookup(oid object.OID) (int64, bool) {
	if len(s.local) <= linearProbeMax {
		for i := len(s.local) - 1; i >= 0; i-- {
			if s.local[i].oid == oid {
				return s.local[i].val, true
			}
		}
		return 0, false
	}
	i := sort.Search(len(s.local), func(i int) bool { return s.local[i].oid > oid })
	if i > 0 && s.local[i-1].oid == oid {
		return s.local[i-1].val, true
	}
	return 0, false
}

// scanRun range-scans ClusterRel over a contiguous run of cluster# keys
// and answers the final group — the historic whole-query scan is
// scanRun(q.Lo, q.Hi).
func (s *clustScan) scanRun(a, b int64) error {
	s.reset(-1)
	s.scanSpan = beginIO(s.db.Core)
	if err := s.db.ClusterRel.Tree.Range(a, b, s.row); err != nil {
		return err
	}
	s.scanIO += s.scanSpan.end()
	return s.resolve()
}

// resolve answers the current group in unit order, once, charging index
// and data fetches to ChildCost. With a prefetcher attached it resolves
// the group's non-local probes through the ISAM index first: the RIDs'
// data pages, deduplicated in first-occurrence order, become the
// prefetch plan, so upcoming fetches stage while the current ones are
// consumed.
func (s *clustScan) resolve() error {
	if !s.hasPar {
		return nil
	}
	s.hasPar = false
	db := s.db
	span := beginIO(db.Core)
	// buildCluster stores a group in OID order; updates and migration may
	// not keep it, and lookup searches a large group.
	byOID := func(a, b localVal) int { return cmp.Compare(a.oid, b.oid) }
	if len(s.local) > linearProbeMax && !slices.IsSortedFunc(s.local, byOID) {
		slices.SortStableFunc(s.local, byOID)
	}
	s.members = slices.Grow(s.members[:0], len(s.unit))
	for _, oid := range s.unit {
		m := member{}
		if v, ok := s.lookup(oid); ok {
			m = member{from: fromGroup, val: v}
		} else if rid, ok := db.Placed(oid, s.snapE); ok {
			m = member{from: fromExtent, rid: rid}
		}
		s.members = append(s.members, m)
	}

	var ch *buffer.Chain
	if pf := db.Pool.Prefetcher(); pf != nil {
		// Migrated members' pages are known without an index probe: they
		// lead the prefetch plan.
		s.keys, s.plan = s.keys[:0], s.plan[:0]
		for i, m := range s.members {
			switch m.from {
			case fromExtent:
				s.planPage(m.rid.Page)
			case fromIndex:
				s.keys = append(s.keys, int64(s.unit[i]))
			}
		}
		if len(s.keys) > 1 {
			rids, err := db.ClusterRel.Index.ProbeBatch(s.keys)
			if err != nil {
				return fmt.Errorf("strategy: clustered probe batch: %w", err)
			}
			for i := range s.members {
				if s.members[i].from == fromIndex {
					s.members[i] = member{from: fromTree, rid: rids[0]}
					s.planPage(rids[0].Page)
					rids = rids[1:]
				}
			}
		}
		if len(s.plan) > 1 {
			psp := db.Obs.Start("prefetch.probeplan")
			psp.SetAttr("pages", int64(len(s.plan)))
			psp.End()
			ch = pf.Start(s.plan)
			defer ch.Finish()
		}
	}

	for i, oid := range s.unit {
		m := s.members[i]
		if m.from != fromGroup {
			var (
				payload []byte
				err     error
			)
			if m.from == fromExtent {
				payload, err = db.ReadPlaced(m.rid)
			} else {
				if m.from == fromIndex {
					if m.rid, err = db.ClusterRel.Index.Probe(int64(oid)); err != nil {
						return fmt.Errorf("strategy: clustered subobject %v: %w", oid, err)
					}
				}
				_, payload, err = db.ClusterRel.Tree.GetAt(m.rid)
			}
			if err != nil {
				return err
			}
			ch.Consumed(m.rid.Page)
			av, err := tuple.Int(db.ClusterSchema, payload, s.attrIdx)
			if err != nil {
				return err
			}
			m.val = av
		}
		s.res.Values = append(s.res.Values, overlayInt(s.q.Snap, oid, s.q.AttrIdx, m.val))
	}
	s.fetchIO += span.end()
	return nil
}

// planPage adds id to the prefetch plan unless it is already there.
func (s *clustScan) planPage(id disk.PageID) {
	if !slices.Contains(s.plan, id) {
		s.plan = append(s.plan, id)
	}
}

func (dfsclust) Update(db *workload.DB, op workload.Op) error {
	return applyUpdate(db, op, db.ApplyUpdateCluster, nil)
}
