package corep

import (
	"errors"
	"fmt"

	"corep/internal/btree"
	"corep/internal/engine"
	"corep/internal/object"
	"corep/internal/reclust"
	"corep/internal/tuple"
)

// This file brings adaptive clustering (DESIGN.md §13) to the object
// API. The mechanism is the core's (engine.Core.Migrate): the path
// expander feeds its heat tracker with every OID-represented unit it
// expands — for Query, RetrievePath and RetrievePathN alike, the cache's
// hits included — and Reorganize copies the hottest units'
// subobject rows onto shared heap extent pages. Migration is copy
// forwarding — base rows are never moved or deleted, the placement map
// redirects every reader that goes through the core's read view (Fetch,
// FetchBatch and the expander) to the packed copy — so a unit whose
// members were scattered across the relation reads back from one or two
// extent pages instead. What is the object API's own is below: a unit is
// the OID lists among the children attributes of the object the heat
// names, a row's bytes are its base row as it stands, and because an
// Update may change a row's width it retires the target's placement
// before touching the base row — logged with the commit that rewrites
// it — so a copy can never go stale, now or after a reopen. Placements
// ride every commit inside the sidecar metadata and come back with it.

// DefaultReclustUnits is how many hot units one Reorganize call
// processes when the caller passes no budget.
const DefaultReclustUnits = 8

// ReclustStats mirrors the reclustering counters (Snapshot.Reclust).
type ReclustStats = reclust.Stats

// ReorganizeResult summarizes one Reorganize call.
type ReorganizeResult struct {
	Units   int // hot units visited
	Objects int // subobject rows copied onto extent pages
	Pages   int // distinct extent pages written
}

// Reorganize runs one adaptive-clustering batch: take up to maxUnits
// (<=0 means DefaultReclustUnits) of the hottest units that still have
// an unplaced member, copy each one's OID-represented subobject rows onto
// shared extent pages — hottest units packed first, a unit's members
// adjacent — and publish the placements. Subsequent Fetch/FetchBatch
// calls on a migrated member read the packed copy; since one unit's
// members share extent pages, resolving a whole unit costs one or two
// page reads where the scattered base rows cost one each. With the WAL
// enabled the new extent pages and the placements commit durably before
// the call returns; any failure publishes nothing, and the next call
// takes the same units again.
func (d *Database) Reorganize(maxUnits int) (ReorganizeResult, error) {
	if maxUnits <= 0 {
		maxUnits = DefaultReclustUnits
	}
	res, err := d.core.Migrate(maxUnits, engine.Enumerator{
		Unit: d.unitMembers,
		Row:  d.memberRow,
		// lastMetaJSON moves before the commit's fate is known: if the
		// commit fails, the next one sees live metadata that differs from
		// it and logs that again, which is all a mismatch ever costs.
		Meta: func(placements []byte) (raw []byte, err error) {
			d.lastMetaJSON, err = d.metaJSON(placements)
			return d.lastMetaJSON, err
		},
	})
	if errors.Is(err, engine.ErrReclustOff) {
		return ReorganizeResult{}, errors.New("corep: reclustering not enabled (open with Options.Reclustering)")
	}
	if err != nil {
		return ReorganizeResult{}, fmt.Errorf("corep: %w", err)
	}
	return ReorganizeResult{Units: len(res.Units), Objects: res.Objects, Pages: res.Pages}, nil
}

// unitMembers lists the subobjects the object with OID key names by
// identifier — only those have a place of their own to move from. Heat
// for an object or relation that is gone lists nothing and decays away.
func (d *Database) unitMembers(key int64) ([]OID, error) {
	parent := OID(key)
	prel, err := d.core.Cat.ByID(parent.Rel())
	if err != nil {
		return nil, nil
	}
	rec, err := prel.Tree.Get(parent.Key())
	if errors.Is(err, btree.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var oids []OID
	for i, f := range prel.Schema.Fields {
		if f.Kind != tuple.KBytes {
			continue
		}
		v, err := tuple.DecodeField(prel.Schema, rec, i)
		if err != nil {
			return nil, err
		}
		c, err := object.ParseChildren(v.Raw, nil)
		if err != nil {
			return nil, fmt.Errorf("reorganize %v.%s: %w", parent, f.Name, err)
		}
		if c.Rep == object.OIDs {
			oids = append(oids, c.OIDs...)
		}
	}
	return oids, nil
}

// memberRow returns oid's base row, the bytes its copy starts from.
func (d *Database) memberRow(_ int64, oid OID) ([]byte, error) {
	rel, err := d.core.Cat.ByID(oid.Rel())
	if err != nil {
		return nil, fmt.Errorf("reorganize %v: %w", oid, err)
	}
	return rel.Tree.Get(oid.Key())
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
// (n <= 0 means all; empty without Options.Reclustering).
func (d *Database) HottestUnits(n int) []UnitHeat {
	if n <= 0 {
		n = -1 // the tracker's "all"; its 0 means none
	}
	var out []UnitHeat
	for _, u := range d.core.HotUnits(n) {
		oid := OID(u.Key)
		name, err := d.RelationOf(oid)
		if err != nil {
			name = fmt.Sprintf("rel#%d", oid.Rel())
		}
		out = append(out, UnitHeat{Relation: name, Key: oid.Key(), Heat: u.Heat, Migrated: u.Migrated})
	}
	return out
}
