package strategy

import (
	"slices"

	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/workload"
)

// dfscache is depth-first search in the presence of caching (§3.2):
// "Check if the value of the subobjects of 'elders' is cached. If so,
// fetch the attribute name from the cache. Otherwise, fetch the
// subobjects from the person relation (this is called materialization),
// cache their values, and return the attribute name."
//
// The strategy maintains the cache: freshly materialized units are
// inserted (outside caching — shared across every parent referencing
// the unit), and updates invalidate via I-locks.
//
// With inside set, the cache key is salted with the referencing parent's
// OID, so each parent owns a private entry and nothing is shared —
// inside caching (§2.3), kept as an ablation.
type dfscache struct {
	inside bool
}

func (c dfscache) Kind() Kind {
	if c.inside {
		return DFSCACHEINSIDE
	}
	return DFSCACHE
}

// cacheUnit derives the caching key material for a parent's unit.
func (c dfscache) cacheUnit(db *workload.DB, p parentRef) object.Unit {
	if !c.inside {
		return object.Unit(p.unit)
	}
	salted := make(object.Unit, 0, len(p.unit)+1)
	salted = append(salted, object.NewOID(db.Parent.ID, p.key))
	return append(salted, p.unit...)
}

func (c dfscache) Retrieve(db *workload.DB, q Query) (*Result, error) {
	sc, res, err := scanPhase(db, q, "strategy.dfscache/scan")
	if err != nil {
		return nil, err
	}
	defer sc.release()
	res.Values = slices.Grow(res.Values, len(sc.oids)) // every subobject yields one value

	child := beginIO(db.Core)
	probeSp := db.Obs.Start("strategy.dfscache/probe")
	var cacheHits, materialized int64
	// One value buffer, the scratch's, serves the whole retrieve: a hit
	// is appended into it off the cache's pages, a miss is framed into it
	// off the child leaves, either is projected and — the cache copies
	// what it is handed — the next unit overwrites it.
	for _, p := range sc.parents {
		key := c.cacheUnit(db, p)
		// Snapshot epoch 0 (nil Snap) is the historic unversioned path;
		// under versioned serving the epoch gates hits on the cache's
		// update watermarks (see cache/version.go).
		var ok bool
		sc.value, ok, err = db.Cache.AppendLookup(sc.value[:0], key, q.Snap.Epoch())
		if err != nil {
			return nil, err
		}
		if ok {
			cacheHits++
			if err := projectUnitValue(db, sc.value, q.AttrIdx, &res.Values); err != nil {
				return nil, err
			}
			continue
		}
		// Materialize the unit, answer from it, and cache it.
		materialized++
		if sc.value, err = materializeUnit(db, sc, sc.value[:0], p.unit, q.Snap); err != nil {
			return nil, err
		}
		if err := projectUnitValue(db, sc.value, q.AttrIdx, &res.Values); err != nil {
			return nil, err
		}
		if err := db.Cache.InsertSnap(key, sc.value, q.Snap.Epoch()); err != nil && !disk.IsFault(err) {
			// A faulted insert only means the unit isn't cached; the rows
			// are already materialized, so degrade and keep answering.
			return nil, err
		}
	}
	probeSp.SetAttr("cache_hits", cacheHits)
	probeSp.SetAttr("materialized", materialized)
	probeSp.End()
	res.Split.Child = child.end()
	return res, nil
}

// Update writes op and drops every cached unit containing an updated
// subobject (I-lock invalidation, §3.2), paying hash-file deletes.
func (dfscache) Update(db *workload.DB, op workload.Op) error {
	return applyUpdate(db, op, db.ApplyUpdateBase, op.Targets)
}
