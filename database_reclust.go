package corep

import (
	"errors"
	"fmt"

	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/reclust"
	"corep/internal/tuple"
)

// This file brings adaptive clustering (DESIGN.md §13) to the object
// API: EnableReclustering attaches a bounded, decayed heat tracker that
// the path expander feeds with every OID-represented unit it expands —
// for Query, RetrievePath, RetrievePathN and RetrievePathCached alike —
// and Reorganize migrates the hottest units' subobject rows onto shared
// heap extent pages. Migration is copy forwarding — base rows are never
// moved or deleted, a placement map just redirects every reader that
// goes through the database's read view (placedView: Fetch, FetchBatch
// and the expander) to the packed copy — so a unit whose members were
// scattered across the relation reads back from one or two extent pages
// instead. An in-place Update retires the target's
// placement before touching the base row, so a copy can never go
// stale. Placements are volatile: a reopened database starts
// unclustered and re-learns its heat (extent pages a previous run
// wrote become unreferenced garbage in the page file, never served).

// DefaultReclustUnits is how many hot units one Reorganize call
// processes when the caller passes no budget.
const DefaultReclustUnits = 8

// defaultHeatCap bounds the heat table when EnableReclustering gets no
// explicit capacity.
const defaultHeatCap = 1024

// ReclustStats mirrors the reclustering counters (Snapshot.Reclust).
type ReclustStats = reclust.Stats

// reclustState is the per-database adaptive-clustering policy state;
// the extent the copies live on and the counters are the core's.
type reclustState struct {
	heat  *reclust.Tracker
	place *reclust.Map

	// done marks parents whose units have been reorganized — set only
	// once their placements are published — so a later Reorganize spends
	// its budget on new heat. An Update that retires a member's
	// placement clears its owner here — the unit is worth revisiting.
	done map[OID]bool
}

// EnableReclustering installs the adaptive-clustering state: a heat
// tracker bounded to heatCap units (<=0 means a 1024-entry default)
// with the given decay half-life in touches (<=0 means the package
// default), and an empty placement map. Default-off — a database that
// never calls this keeps every read and update path untouched.
func (d *Database) EnableReclustering(heatCap, halfLife int) error {
	if d.reclust != nil {
		return errors.New("corep: reclustering already enabled")
	}
	if heatCap <= 0 {
		heatCap = defaultHeatCap
	}
	d.reclust = &reclustState{
		heat:  reclust.NewTracker(heatCap, halfLife),
		place: reclust.NewMap(),
		done:  map[OID]bool{},
	}
	d.store.View, d.store.Touch = placedView{d}, d.touchHeat
	return nil
}

// touchHeat feeds the heat tracker with one access to the unit rooted
// at oid (no-op until EnableReclustering).
func (d *Database) touchHeat(oid OID) {
	if d.reclust != nil {
		d.reclust.heat.Touch(int64(oid), 1)
	}
}

// dropPlacement retires oid's migrated copy, if any — called by Update
// before the base row changes, so readers fall back to the rewritten
// row and never see the stale copy. The owning unit becomes eligible
// for re-reorganization.
func (d *Database) dropPlacement(oid OID) {
	rs := d.reclust
	if rs == nil {
		return
	}
	e, ok := rs.place.Latest(oid)
	if !ok {
		return
	}
	rs.place.Drop([]OID{oid})
	d.core.NoteDropped(1)
	delete(rs.done, OID(e.Owner))
}

// placedView is the read view of a database with adaptive clustering
// on: a subobject Reorganize has copied is read from its packed copy,
// the rest through the catalog.
type placedView struct{ d *Database }

// placed returns oid's migrated copy when the placement map holds one;
// the record is the caller's own.
func (v placedView) placed(oid OID) (rec []byte, ok bool, err error) {
	e, ok := v.d.reclust.place.Latest(oid)
	if !ok {
		return nil, false, nil
	}
	rec, err = v.d.core.ReadPlaced(e.RID)
	return rec, err == nil, err
}

// ViewOID lends fn oid's packed copy, or its base row on the pinned leaf.
func (v placedView) ViewOID(oid OID, fn func(rel *catalog.Relation, rec []byte) error) error {
	rec, ok, err := v.placed(oid)
	if err != nil {
		return err
	}
	if !ok {
		return v.d.core.Cat.ViewOID(oid, fn)
	}
	rel, err := v.d.core.Cat.ByID(oid.Rel())
	if err != nil {
		return err
	}
	return fn(rel, rec)
}

// ProbeOIDs reads placed members from their packed copies — one unit's
// members share extent pages, so the pool turns the probes into one or
// two page fetches — and only the rest from the B-trees, in one
// page-ordered sweep per relation.
func (v placedView) ProbeOIDs(oids []OID, fn func(i int, rel *catalog.Relation, rec []byte) error) error {
	rest, pos := make([]OID, 0, len(oids)), []int(nil)
	for i, oid := range oids {
		rec, ok, err := v.placed(oid)
		if err != nil {
			return err
		}
		if !ok {
			rest, pos = append(rest, oid), append(pos, i)
			continue
		}
		rel, err := v.d.core.Cat.ByID(oid.Rel())
		if err != nil {
			return err
		}
		if err := fn(i, rel, rec); err != nil {
			return err
		}
	}
	return v.d.core.Cat.ProbeOIDs(rest, func(i int, rel *catalog.Relation, rec []byte) error {
		return fn(pos[i], rel, rec)
	})
}

// ReorganizeResult summarizes one Reorganize call.
type ReorganizeResult struct {
	Units   int // hot units visited
	Objects int // subobject rows copied onto extent pages
	Pages   int // distinct extent pages written
}

// Reorganize runs one adaptive-clustering batch: visit up to maxUnits
// (<=0 means DefaultReclustUnits) of the hottest not-yet-reorganized
// units, copy each one's OID-represented subobject rows onto shared
// extent pages — hottest units packed first, a unit's members adjacent
// — and publish the placements. Subsequent Fetch/FetchBatch calls on a
// migrated member read the packed copy; since one unit's members share
// extent pages, resolving a whole unit costs one or two page reads
// where the scattered base rows cost one each. With the WAL enabled
// the new extent pages commit durably before the call returns (the
// placements themselves are deliberately not logged — they are an
// optimization, rebuilt from fresh heat after any reopen).
func (d *Database) Reorganize(maxUnits int) (ReorganizeResult, error) {
	var res ReorganizeResult
	rs := d.reclust
	if rs == nil {
		return res, errors.New("corep: reclustering not enabled (call EnableReclustering)")
	}
	if maxUnits <= 0 {
		maxUnits = DefaultReclustUnits
	}
	entries := make(map[OID]reclust.Entry)
	pages := map[disk.PageID]bool{}
	// A unit is done only once its placements are published: the final
	// commit (or any step before it) can fail, and a unit marked done
	// with nothing placed would never be revisited.
	var visited []OID
	for _, kh := range rs.heat.TopN(-1) {
		if res.Units >= maxUnits {
			break
		}
		parent := OID(kh.Key)
		if rs.done[parent] {
			continue
		}
		prel, err := d.core.Cat.ByID(parent.Rel())
		if err != nil {
			continue // tracked heat for a relation that no longer exists
		}
		rec, err := prel.Tree.Get(parent.Key())
		if err != nil {
			continue // parent row gone; heat will decay away
		}
		row, err := tuple.Decode(prel.Schema, append([]byte(nil), rec...))
		if err != nil {
			return ReorganizeResult{}, err
		}
		moved, err := d.reorganizeUnit(parent, prel.Schema, row, entries, pages)
		if err != nil {
			return ReorganizeResult{}, err
		}
		visited = append(visited, parent)
		res.Units++
		res.Objects += moved
		// Under the WAL's no-steal gate dirty extent frames hold their
		// buffer slots until captured; commit periodically so a large
		// budget cannot wedge the pool.
		if res.Units%16 == 0 {
			if _, err := d.commit(); err != nil {
				return ReorganizeResult{}, err
			}
		}
	}
	if _, err := d.commit(); err != nil {
		return ReorganizeResult{}, err
	}
	rs.place.Publish(entries)
	for _, parent := range visited {
		rs.done[parent] = true
	}
	res.Pages = len(pages)
	if res.Units > 0 {
		d.core.NoteBatch(res.Objects, res.Pages)
	}
	return res, nil
}

// reorganizeUnit copies one parent's OID-represented subobject rows
// into the extent and stages their placements. Members already placed
// (by an earlier batch, or claimed by a hotter parent in this one)
// keep their existing copies.
func (d *Database) reorganizeUnit(parent OID, schema *tuple.Schema, row Row, entries map[OID]reclust.Entry, pages map[disk.PageID]bool) (int, error) {
	rs := d.reclust
	moved := 0
	for i := 0; i < schema.NumFields(); i++ {
		if row[i].Kind != tuple.KBytes {
			continue
		}
		c, err := object.ParseChildren(row[i].Raw)
		if c.Rep != object.OIDs {
			continue // only subobjects with a place of their own can be moved
		}
		if err != nil {
			return moved, err
		}
		for _, oid := range c.OIDs {
			if _, staged := entries[oid]; staged {
				continue
			}
			if _, ok := rs.place.Latest(oid); ok {
				continue
			}
			srel, err := d.core.Cat.ByID(oid.Rel())
			if err != nil {
				return moved, fmt.Errorf("corep: reorganize %v: %w", oid, err)
			}
			rec, err := srel.Tree.Get(oid.Key())
			if err != nil {
				continue // dangling member OID; the base read path skips it too
			}
			rid, err := d.core.AppendPlaced(rec)
			if err != nil {
				return moved, err
			}
			entries[oid] = reclust.Entry{RID: rid, Owner: int64(parent)}
			pages[rid.Page] = true
			moved++
		}
	}
	return moved, nil
}

// UnitHeat is one HottestUnits entry: a unit's root object and its
// decayed access heat.
type UnitHeat struct {
	Relation string  `json:"relation"`
	Key      int64   `json:"key"`
	Heat     float64 `json:"heat"`
	Migrated bool    `json:"migrated,omitempty"` // unit already reorganized
}

// HottestUnits returns the n hottest tracked units, hottest first
// (n <= 0 means all; empty until EnableReclustering).
func (d *Database) HottestUnits(n int) []UnitHeat {
	rs := d.reclust
	if rs == nil {
		return nil
	}
	if n <= 0 {
		n = -1 // TopN's "all"; its 0 means none
	}
	var out []UnitHeat
	for _, kh := range rs.heat.TopN(n) {
		oid := OID(kh.Key)
		name, err := d.RelationOf(oid)
		if err != nil {
			name = fmt.Sprintf("rel#%d", oid.Rel())
		}
		out = append(out, UnitHeat{Relation: name, Key: oid.Key(), Heat: kh.Heat, Migrated: rs.done[oid]})
	}
	return out
}

// ReclustStats returns the adaptive-clustering counters (nil until
// EnableReclustering).
func (d *Database) ReclustStats() *ReclustStats {
	rs := d.reclust
	if rs == nil {
		return nil
	}
	st := d.core.ReclustStats(rs.heat, rs.place)
	return &st
}
