package workload

import (
	"fmt"

	"corep/internal/engine"
	"corep/internal/object"
	"corep/internal/tuple"
)

// Online reclustering for the clustered layout (DESIGN.md §13). The
// mechanism — heat, placements, the copy → commit → publish batch,
// recovery — is the core's (engine.Core.Migrate); this file is what is
// the clustered layout's own: a unit is the parent's ClusterRel row
// followed by its members, a row is found through the ISAM index and
// re-keyed to the cluster# of its new home, and because an update only
// patches a fixed-width field it writes through to the copy
// (ApplyUpdateCluster) instead of retiring it.

// DefaultReclustBatch is how many hot parents one ReclustStep migrates
// when the caller passes no budget.
const DefaultReclustBatch = 8

// EnableReclustering installs the reclustering state (db.Reclust): a
// heat tracker bounded to heatCap parents (<=0 means NumParents) with the
// given half-life in queries (<=0 means reclust.DefaultHalfLife) and an
// empty placement map. DFSCLUST retrieves feed the heat directly.
// Requires the clustered layout; default-off — databases that never call
// this keep every read and update path untouched.
func (db *DB) EnableReclustering(heatCap, halfLife int) error {
	if !db.Cfg.Clustered {
		return fmt.Errorf("workload: reclustering requires the clustered layout")
	}
	if heatCap <= 0 {
		heatCap = db.Cfg.NumParents
	}
	if err := db.InitReclust(heatCap, halfLife); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return nil
}

// ReclustStep runs one migration batch over up to maxParents of the
// hottest not-yet-migrated parents, packed in ascending key order, and
// re-homes the moved members in the clustering assignment. Concurrent
// with versioned serving: the copy reads base pages no versioned updater
// writes, and no snapshot ever sees half a batch. Returns how many rows
// moved (0 = nothing left worth moving).
func (db *DB) ReclustStep(maxParents int) (int, error) {
	if maxParents <= 0 {
		maxParents = DefaultReclustBatch
	}
	res, err := db.Migrate(maxParents, engine.Enumerator{Unit: db.reclustUnit, Row: db.reclustRow, Ascending: true})
	if err != nil {
		return res.Objects, err
	}
	for _, u := range res.Units {
		db.Assignment.Rehome(u.OIDs[1:], u.Owner)
	}
	return res.Objects, nil
}

// reclustUnit lists parent p's whole unit, its own row first. A unit
// moves whole, so a placed parent row means nothing of it is left.
func (db *DB) reclustUnit(p int64) ([]object.OID, error) {
	if p < 0 || p >= int64(db.Cfg.NumParents) {
		return nil, nil
	}
	pOID := object.NewOID(db.Parent.ID, p)
	if _, ok := db.Placed(pOID, 0); ok {
		return nil, nil
	}
	return append([]object.OID{pOID}, db.UnitOf(p)...), nil
}

// reclustRow reads oid's ClusterRel row and re-keys it: cluster# follows
// the new home.
func (db *DB) reclustRow(parent int64, oid object.OID) ([]byte, error) {
	rid, err := db.ClusterRel.Index.Probe(int64(oid))
	if err != nil {
		return nil, err
	}
	var rec []byte
	err = db.ClusterRel.Tree.ViewAt(rid, func(payload []byte) error {
		rec = append(rec, payload...)
		return tuple.PutInt(db.ClusterSchema, rec, 0, parent)
	})
	return rec, err
}
