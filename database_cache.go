package corep

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"corep/internal/cache"
	"corep/internal/object"
	"corep/internal/pql"
	"corep/internal/tuple"
)

// procCacheKey derives a synthetic one-member unit from a stored query's
// text; relation id 0xFFFF keeps it out of real OID space.
func procCacheKey(src string) object.Unit {
	h := fnv.New64a()
	h.Write([]byte(src))
	return object.Unit{object.NewOID(0xFFFF, int64(h.Sum64())&object.MaxKey)}
}

// relLockOID is a pseudo-OID standing for "any tuple of this relation".
// Cached procedural results hold an I-lock on it so that inserts or
// updates which make a previously non-qualifying tuple satisfy the
// stored predicate still invalidate (the coarse analogue of POSTGRES
// range markers; per-tuple I-locks alone cannot see such tuples).
func relLockOID(relID uint16) object.OID { return object.NewOID(relID, object.MaxKey) }

// This file adds the cached representations of the matrix (§2.3) to the
// object API: an optional outside value cache that RetrievePath consults
// for OID-represented and procedural children, and in-place updates with
// I-lock invalidation so the cache never serves stale subobjects.

// EnableCache attaches an outside value cache of at most maxUnits units
// (the paper's SizeCache). RetrievePath then caches materialized units —
// the `OID × values` and `procedural × values` cells of Figure 1.
func (d *Database) EnableCache(maxUnits int) error {
	if d.core.Cache != nil {
		return errors.New("corep: cache already enabled")
	}
	buckets := maxUnits / 4
	if buckets < 16 {
		buckets = 16
	}
	return d.core.NewCache(maxUnits, buckets, 1)
}

// CacheStats reports cache event counters (zero value when no cache).
type CacheStats = cache.Stats

// CacheStats returns the cache counters.
func (d *Database) CacheStats() CacheStats {
	if d.core.Cache == nil {
		return CacheStats{}
	}
	return d.core.Cache.Stats()
}

// CachedUnits returns how many units are currently cached.
func (d *Database) CachedUnits() int {
	if d.core.Cache == nil {
		return 0
	}
	return d.core.Cache.Len()
}

// Update replaces the non-children attributes of the row with the given
// key, in place, and invalidates every cached unit holding an I-lock on
// the updated object (§3.2). Children attributes keep their stored
// representation.
func (r *Relation) Update(key int64, row Row) error {
	old, err := r.Get(key)
	if err != nil {
		return err
	}
	if len(row) != len(old) {
		return fmt.Errorf("corep: %d values for %d fields", len(row), len(old))
	}
	full := make(Row, len(old))
	copy(full, row)
	for name := range r.childAttrs {
		i := r.schema.MustIndex(name)
		full[i] = old[i] // representation unchanged
	}
	if full[0].Kind != tuple.KInt || full[0].Int != key {
		return errors.New("corep: update must keep the key")
	}
	rec, err := tuple.Encode(nil, r.schema, full)
	if err != nil {
		return err
	}
	// A reclustered copy must never serve stale values: retire the
	// placement before the base row changes, so every reader falls back
	// to the row this update rewrites (harmless if the update then
	// fails — the base row is always correct).
	r.db.dropPlacement(object.NewOID(r.rel.ID, key))
	locks := []object.OID{object.NewOID(r.rel.ID, key), relLockOID(r.rel.ID)}
	return r.db.mutate(locks, func() error { return r.rel.Tree.Update(key, rec) })
}

// resolveCached is Resolve plus outside caching for the representations
// where precomputation helps: OID children cache the materialized unit;
// procedural children cache the stored query's result. Value-based
// children are already materialized (the shaded cells of Figure 1).
func (r *Relation) resolveCached(key int64, attr string, epoch uint64) (*Resolved, error) {
	if r.db.core.Cache == nil {
		return r.Resolve(key, attr)
	}
	// Cache inserts dirty hash-file pages through the shared pool; under
	// the WAL gate those frames hold their eviction slots until captured.
	// Drain the backlog here so a read-only stretch cannot wedge the pool.
	if err := r.db.core.Relieve(); err != nil {
		return nil, err
	}
	row, err := r.Get(key)
	if err != nil {
		return nil, err
	}
	raw := row[r.schema.MustIndex(attr)].Raw
	if len(raw) == 0 || raw[0] == tagValue {
		return r.Resolve(key, attr)
	}

	switch raw[0] {
	case tagOIDs:
		oids, err := object.DecodeOIDs(raw[1:])
		if err != nil {
			return nil, err
		}
		if len(oids) == 0 {
			return &Resolved{Representation: object.OIDs.String()}, nil
		}
		// All-same-relation units cache whole; mixed units fall back.
		relID := oids[0].Rel()
		for _, o := range oids {
			if o.Rel() != relID {
				return r.Resolve(key, attr)
			}
		}
		srel, err := r.db.core.Cat.ByID(relID)
		if err != nil {
			return nil, err
		}
		unit := object.Unit(oids)
		if v, ok, err := r.db.core.Cache.LookupSnap(unit, epoch); err != nil {
			return nil, err
		} else if ok {
			rows, err := object.DecodeNested(srel.Schema, v)
			if err != nil {
				return nil, err
			}
			return &Resolved{
				Representation: object.OIDs.String(),
				Rows:           rows,
				Schema:         srel.Schema.Names(),
			}, nil
		}
		// Materialize, answer, cache (with I-locks on each member).
		rows := make([]Row, 0, len(oids))
		for _, oid := range oids {
			t, err := r.db.Fetch(oid)
			if err != nil {
				return nil, err
			}
			rows = append(rows, t)
		}
		v, err := object.EncodeNested(srel.Schema, rows)
		if err != nil {
			return nil, err
		}
		if err := r.db.core.Cache.InsertSnap(unit, v, epoch); err != nil {
			return nil, err
		}
		return &Resolved{
			Representation: object.OIDs.String(),
			Rows:           rows,
			Schema:         srel.Schema.Names(),
		}, nil

	case tagProc:
		src := string(raw[1:])
		if r.db.cacheMode == CacheOIDs {
			return r.resolveProcCachedOIDs(src)
		}
		// Procedural × values (the [JHIN88] column). The cache key
		// derives from the stored query text, so two objects storing the
		// same query share one entry (outside caching); the I-locks go on
		// the result's source tuples, so updating any member invalidates.
		q, err := pql.Parse(src)
		if err != nil {
			return nil, err
		}
		schema, err := pql.ResultSchema(r.db.core.Cat, q)
		if err != nil {
			return nil, err
		}
		keyUnit := procCacheKey(src)
		if v, ok, err := r.db.core.Cache.LookupSnap(keyUnit, epoch); err != nil {
			return nil, err
		} else if ok {
			rows, err := object.DecodeNested(schema, v)
			if err != nil {
				return nil, err
			}
			return &Resolved{
				Representation: object.Procedural.String(),
				Rows:           rows,
				Schema:         schema.Names(),
			}, nil
		}
		res, err := pql.Execute(r.db.core.Cat, q)
		if err != nil {
			return nil, err
		}
		// Only single-relation results report their sources; joins are
		// served uncached (no sound invalidation target).
		if len(res.Sources) == len(res.Tuples) && len(res.Tuples) > 0 {
			locks := make([]object.OID, len(res.Sources), len(res.Sources)+len(q.Relations()))
			for i, s := range res.Sources {
				locks[i] = object.NewOID(s.RelID, s.Key)
			}
			for _, relName := range q.Relations() {
				if rel, rerr := r.db.core.Cat.Get(relName); rerr == nil {
					locks = append(locks, relLockOID(rel.ID))
				}
			}
			v, err := object.EncodeNested(schema, res.Tuples)
			if err != nil {
				return nil, err
			}
			if err := r.db.core.Cache.InsertSnapWithLocks(keyUnit, locks, v, epoch); err != nil {
				return nil, err
			}
		}
		return &Resolved{
			Representation: object.Procedural.String(),
			Rows:           res.Tuples,
			Schema:         res.Schema.Names(),
		}, nil
	}
	return r.Resolve(key, attr)
}

// RetrievePathCached is RetrievePath through the cache enabled with
// EnableCache; without a cache it behaves identically to RetrievePath.
// With versioned serving on, the whole call reads at one pinned
// snapshot epoch: cache hits are watermark-checked against it, so an
// update committing mid-scan can never serve this query a unit newer
// than its snapshot.
func (d *Database) RetrievePathCached(relName, childrenAttr, targetAttr string, lo, hi int64) ([]Value, error) {
	crel, err := d.core.Cat.Get(relName)
	if err != nil {
		return nil, err
	}
	if _, err := childrenIndex(crel, childrenAttr); err != nil {
		return nil, err
	}
	epoch, release := d.beginSnapshotEpoch()
	defer release()
	r := &Relation{db: d, rel: crel, schema: crel.Schema, childAttrs: map[string]bool{childrenAttr: true}}
	p := pathProjector{d: d, attr: targetAttr}
	var out []Value
	err = crel.Tree.Range(lo, hi, func(key int64, _ []byte) (bool, error) {
		res, rerr := r.resolveCached(key, childrenAttr, epoch)
		if rerr != nil {
			return false, rerr
		}
		if res.Representation == object.OIDs.String() {
			// Heat for adaptive clustering: cache hits count too — they
			// still say this unit is what the workload wants packed.
			d.touchHeat(object.NewOID(crel.ID, key))
		}
		if res.OIDs != nil {
			for _, oid := range res.OIDs {
				v, ferr := p.member(oid)
				if ferr != nil {
					return false, ferr
				}
				out = append(out, v)
			}
			return true, nil
		}
		i := slices.IndexFunc(res.Schema, func(name string) bool { return tuple.Named(name, targetAttr) })
		if i < 0 {
			return false, fmt.Errorf("corep: resolved rows have no attribute %q (have %v)", targetAttr, res.Schema)
		}
		for _, row := range res.Rows {
			out = append(out, row[i])
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RetrievePathN answers a query with more than two dots, e.g.
//
//	retrieve (cell.paths.rects.layer)
//
// by resolving each children attribute level in turn ("queries
// involving more than two dots in the target list require more levels
// of relationships to be explored", §3). All intermediate levels must
// use the OID representation; the final attribute is projected from the
// leaf objects.
func (d *Database) RetrievePathN(relName string, attrs []string, lo, hi int64) ([]Value, error) {
	if len(attrs) < 2 {
		return nil, errors.New("corep: RetrievePathN needs at least one children attribute and a target")
	}
	childAttrs, targetAttr := attrs[:len(attrs)-1], attrs[len(attrs)-1]
	crel, err := d.core.Cat.Get(relName)
	if err != nil {
		return nil, err
	}
	if _, err := childrenIndex(crel, childAttrs[0]); err != nil {
		return nil, err
	}
	// Level 0: qualifying roots.
	frontier := make([]object.OID, 0, hi-lo+1)
	err = crel.Tree.Range(lo, hi, func(key int64, _ []byte) (bool, error) {
		frontier = append(frontier, object.NewOID(crel.ID, key))
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	// Depth-first level expansion (the paper's recursion).
	for _, attr := range childAttrs {
		var next []object.OID
		for _, oid := range frontier {
			rel, err := d.core.Cat.ByID(oid.Rel())
			if err != nil {
				return nil, err
			}
			if _, err := childrenIndex(rel, attr); err != nil {
				return nil, err
			}
			rw := &Relation{db: d, rel: rel, schema: rel.Schema, childAttrs: map[string]bool{attr: true}}
			res, err := rw.Resolve(oid.Key(), attr)
			if err != nil {
				return nil, err
			}
			if res.OIDs == nil {
				return nil, fmt.Errorf("corep: level %q of a multi-dot path must use the OID representation", attr)
			}
			next = append(next, res.OIDs...)
		}
		frontier = next
	}
	p := pathProjector{d: d, attr: targetAttr}
	out := make([]Value, 0, len(frontier))
	for _, oid := range frontier {
		v, err := p.member(oid)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
