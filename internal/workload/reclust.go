package workload

import (
	"fmt"
	"sort"
	"sync"

	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/reclust"
	"corep/internal/storage"
	"corep/internal/tuple"
)

// Online reclustering for the clustered layout (DESIGN.md §13): the
// heat tracker learns which parents the workload actually touches, and
// ReclustStep incrementally migrates the hottest parents' whole units —
// parent row first, then every subobject — onto shared extent pages, so
// the read path serves a migrated group without touching the B-tree at
// all. Migration is copy forwarding — the old ClusterRel rows are never
// deleted, the placement map just redirects readers — so a batch needs
// no B-tree surgery and a crash can only lose the redirect, never a
// row.

// DefaultReclustBatch is how many hot parents one ReclustStep migrates
// when the caller passes no budget.
const DefaultReclustBatch = 8

// ReclustState is the per-database online-reclustering state,
// installed by EnableReclustering.
type ReclustState struct {
	// Heat is the decayed per-parent access tracker, fed from retrieve
	// spans (lo/hi attributes) through the obs tee.
	Heat *reclust.Tracker
	// Place is the epoch-versioned placement map consulted by the
	// dfsclust read path before the ISAM fallback.
	Place *reclust.Map

	db     *DB
	feeder *reclust.Feeder

	// mu serializes migration batches against each other and against
	// the extent write-through of ApplyUpdateCluster. Lock order: mu →
	// the core's extent page lock → pool shard.
	mu sync.Mutex
}

// EnableReclustering installs the reclustering state: a heat tracker
// bounded to heatCap parents (<=0 means NumParents) with the given
// half-life in queries (<=0 means reclust.DefaultHalfLife), an empty
// placement map, and the span feeder. Requires the clustered layout.
// Call before AttachObs so the heat feeder joins the span sink tee;
// default-off — databases that never call this keep every read and
// update path untouched.
func (db *DB) EnableReclustering(heatCap, halfLife int) error {
	if !db.Cfg.Clustered {
		return fmt.Errorf("workload: reclustering requires the clustered layout")
	}
	if db.Reclust != nil {
		return fmt.Errorf("workload: reclustering already enabled")
	}
	if heatCap <= 0 {
		heatCap = db.Cfg.NumParents
	}
	tr := reclust.NewTracker(heatCap, halfLife)
	db.Reclust = &ReclustState{
		Heat:   tr,
		Place:  reclust.NewMap(),
		db:     db,
		feeder: &reclust.Feeder{Tracker: tr, SpanName: "strategy.dfsclust/retrieve"},
	}
	return nil
}

// Stats snapshots the reclustering counters.
func (rs *ReclustState) Stats() reclust.Stats { return rs.db.ReclustStats(rs.Heat, rs.Place) }

// reclustMove is one parent's migration work within a batch: the
// parent's own row (oids[0]) followed by the unit members to copy.
type reclustMove struct {
	parent int64
	oids   []object.OID
}

// ReclustStep runs one migration batch: pick up to maxParents of the
// hottest not-yet-migrated parents, copy each one's whole unit —
// parent row, then members in unit order — onto shared extent pages,
// and publish the placements through the core's commit path (Commit,
// then Publish). Concurrent with versioned serving: the copy reads base
// pages no versioned updater writes, and no snapshot ever sees half a
// batch. With the WAL enabled the batch's page images and placement
// blob become durable before the redirect publishes; a crash in between
// loses only orphan extent rows.
// Returns how many subobjects moved (0 = nothing left worth moving).
func (db *DB) ReclustStep(maxParents int) (int, error) {
	rs := db.Reclust
	if rs == nil {
		return 0, fmt.Errorf("workload: reclustering not enabled")
	}
	if maxParents <= 0 {
		maxParents = DefaultReclustBatch
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()

	batch := rs.planLocked(maxParents)
	if len(batch) == 0 {
		return 0, nil
	}

	// Copy the rows, hottest parents packed together in ascending key
	// order. Nothing is visible until the publish below, so a fault
	// mid-copy orphans extent slots and changes no answer.
	entries := make(map[object.OID]reclust.Entry)
	var moved []object.OID
	pages := map[disk.PageID]bool{}
	for _, mv := range batch {
		for _, oid := range mv.oids {
			rid, err := rs.appendCopyLocked(mv.parent, oid)
			if err != nil {
				db.NoteDropped(len(moved))
				return 0, err
			}
			entries[oid] = reclust.Entry{RID: rid, Owner: mv.parent}
			moved = append(moved, oid)
			pages[rid.Page] = true
		}
	}

	// Durability first: the batch's extent page images plus the
	// placement state including this batch ride one WAL commit. If the
	// commit fails nothing was published — the extent rows are orphans
	// and recovery restores the previous placements.
	if db.Log() != nil {
		combined := rs.Place.Snapshot()
		for oid, e := range entries {
			combined[oid] = e
		}
		if _, err := db.Commit(reclust.EncodePlacements(combined)); err != nil {
			db.NoteDropped(len(moved))
			return 0, err
		}
	}

	// Publish. Versioned serving: the moved objects' latch stripes are
	// taken and the redirects install inside the commit critical
	// section, so they become visible atomically with a fresh epoch and
	// the cache watermarks cover them before any snapshot at that epoch
	// exists.
	err := db.Publish(db.BeginUpdate(moved), moved, func(e uint64) {
		for oid, ent := range entries {
			ent.Epoch = e
			entries[oid] = ent
		}
		rs.Place.Publish(entries)
	})
	if err != nil {
		return len(moved), err
	}

	for _, mv := range batch {
		db.Assignment.Rehome(mv.oids[1:], mv.parent)
	}
	db.NoteBatch(len(moved), len(pages))
	return len(moved), nil
}

// planLocked selects the batch: walk parents hottest-first, keep those
// not yet migrated (no placement for the parent's own row), stop at
// maxParents. A parent's move is its whole unit — the parent row first,
// then every member that has no placement yet; a member already placed
// (by an earlier batch, or claimed by a hotter parent in this one)
// keeps its existing copy, which the reader finds by per-OID lookup.
func (rs *ReclustState) planLocked(maxParents int) []reclustMove {
	db := rs.db
	claimed := map[object.OID]bool{}
	var batch []reclustMove
	for _, kh := range rs.Heat.TopN(-1) {
		p := kh.Key
		if p < 0 || p >= int64(db.Cfg.NumParents) {
			continue
		}
		pOID := object.NewOID(db.Parent.ID, p)
		if _, ok := rs.Place.Latest(pOID); ok {
			continue // unit already migrated
		}
		move := []object.OID{pOID}
		for _, oid := range db.UnitOf(p) {
			if claimed[oid] {
				continue
			}
			if _, ok := rs.Place.Latest(oid); ok {
				continue
			}
			claimed[oid] = true
			move = append(move, oid)
		}
		batch = append(batch, reclustMove{parent: p, oids: move})
		if len(batch) >= maxParents {
			break
		}
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].parent < batch[j].parent })
	return batch
}

// appendCopyLocked copies oid's current row into the extent, re-keyed
// to its new home parent, and returns the copy's RID.
func (rs *ReclustState) appendCopyLocked(parent int64, oid object.OID) (storage.RID, error) {
	db := rs.db
	// Source of the copy: the newest placement if one exists (keeps a
	// re-migrated row's write-through history), else the base row.
	var payload []byte
	if e, ok := rs.Place.Latest(oid); ok {
		rec, err := db.ReadPlaced(e.RID)
		if err != nil {
			return storage.RID{}, err
		}
		payload = rec
	} else {
		rid, err := db.ClusterRel.Index.Probe(int64(oid))
		if err != nil {
			return storage.RID{}, err
		}
		_, rec, err := db.ClusterRel.Tree.GetAt(rid)
		if err != nil {
			return storage.RID{}, err
		}
		payload = rec
	}
	t, err := tuple.Decode(db.ClusterSchema, payload)
	if err != nil {
		return storage.RID{}, err
	}
	t[0] = tuple.IntVal(parent) // cluster# follows the new home
	nrec, err := tuple.Encode(nil, db.ClusterSchema, t)
	if err != nil {
		return storage.RID{}, err
	}
	return db.AppendPlaced(nrec)
}

// writeThrough keeps a migrated copy coherent with an in-place base
// update: ApplyUpdateCluster calls it per target after rewriting the
// base row. Serialized against migration batches by rs.mu, so
// copy-then-update and update-then-copy both leave the extent row
// carrying the new value.
func (rs *ReclustState) writeThrough(oid object.OID, ret1 int64) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	e, ok := rs.Place.Latest(oid)
	if !ok {
		return nil
	}
	rec, err := rs.db.ReadPlaced(e.RID)
	if err != nil {
		return err
	}
	nrec, err := PatchRet1(rs.db.ClusterSchema, rec, clusterRet1, ret1)
	if err != nil {
		return err
	}
	return rs.db.RewritePlaced(e.RID, nrec)
}
