package corep

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

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
// object API: the outside value cache Options.CacheUnits configures,
// which RetrievePath consults for OID-represented and procedural
// children, and in-place updates with I-lock invalidation so the cache
// never serves stale subobjects.

// CacheStats reports cache event counters (Snapshot.Cache).
type CacheStats = cache.Stats

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
// representation: their bytes are copied from the old record, read in
// place under one leaf pin, into the new one, which is encoded in a lent
// buffer. The old row is never decoded.
func (r *Relation) Update(key int64, row Row) error {
	u := rowBufs.Get().(*rowBuf)
	defer rowBufs.Put(u)
	err := r.rel.Tree.View(key, func(old []byte) error {
		if len(row) != len(r.schema.Fields) {
			return fmt.Errorf("corep: %d values for %d fields", len(row), len(r.schema.Fields))
		}
		full := append(u.row[:0], row...)
		defer func() { clear(full); u.row = full[:0] }()
		for i, f := range r.schema.Fields {
			if !r.childAttrs[f.Name] {
				continue
			}
			raw, err := tuple.FieldBytes(r.schema, old, i)
			if err != nil {
				return err
			}
			full[i] = tuple.BytesVal(raw) // representation unchanged; a view, encoded below
		}
		if full[0].Kind != tuple.KInt || full[0].Int != key {
			return errors.New("corep: update must keep the key")
		}
		var err error
		u.rec, err = tuple.Encode(u.rec[:0], r.schema, full)
		return err
	})
	if err != nil {
		return err
	}
	// A reclustered copy must never serve stale values: retire the
	// placement before the base row changes, so every reader falls back
	// to the row this update rewrites and the commit below logs the
	// placements without it (harmless if the update then fails — the
	// base row is always correct).
	oid := object.NewOID(r.rel.ID, key)
	r.db.core.Retire(oid)
	locks := []object.OID{oid, relLockOID(r.rel.ID)}
	return r.db.mutate(locks, func() error { return r.rel.Tree.Update(key, u.rec) })
}

// rowBuf is the scratch of a call on one stored row: the row and the
// record Update builds a new record in, and in rec the children value
// Resolve reads.
type rowBuf struct {
	row Row
	rec []byte
}

// rowBufs lends Update and Resolve their rowBuf. A buffer goes back
// holding no value: the row is cleared, the record is bytes only.
var rowBufs = sync.Pool{New: func() any { return new(rowBuf) }}

// expandCached is the expander with outside caching in front of it for
// the representations where precomputation helps: an OID list within one
// relation caches the materialized unit, procedural children cache the
// stored query's result (or, under CacheOIDs, its identities). Inline
// members are already materialized (the shaded cells of Figure 1) and,
// like a list that mixes relations, go to the expander as they are.
func (d *Database) expandCached(x *pql.Expander, owner OID, raw []byte, segs []string, epoch uint64, out []Value) ([]Value, error) {
	// Cache inserts dirty hash-file pages through the shared pool; under
	// the WAL gate those frames hold their eviction slots until captured.
	// Drain the backlog here so a read-only stretch cannot wedge the pool.
	if err := d.core.Relieve(); err != nil {
		return nil, err
	}
	c, err := object.ParseChildren(raw, nil) // a unit key outlives the call: its own list
	if err != nil {
		return x.Expand(owner, raw, segs, out) // the expander's error, or no children
	}
	var rows []Row
	var schema *tuple.Schema
	switch {
	case c.Rep == object.OIDs && oneRelation(c.OIDs):
		// Heat for adaptive clustering: cache hits count too — they still
		// say this unit is what the workload wants packed.
		d.core.Touch(int64(owner))
		rows, schema, err = d.cachedUnit(c.OIDs, epoch)
	case c.Rep == object.Procedural && d.cacheMode == CacheOIDs:
		oids, res, err := d.cachedProcOIDs(string(c.Query))
		if err != nil {
			return nil, err
		}
		if res == nil {
			return x.ExpandOIDs(0, oids, segs, out)
		}
		rows, schema = res.Tuples, res.Schema
	case c.Rep == object.Procedural:
		rows, schema, err = d.cachedProc(string(c.Query), epoch)
	default:
		return x.Expand(owner, raw, segs, out)
	}
	if err != nil {
		return nil, err
	}
	i := schema.Lookup(segs[0])
	if i < 0 {
		return nil, fmt.Errorf("corep: resolved rows have no attribute %q (have %v)", segs[0], schema.Names())
	}
	for _, row := range rows {
		out = append(out, row[i])
	}
	return out, nil
}

// oneRelation reports whether a non-empty OID list stays within one
// relation — a unit, the granule the cache holds.
func oneRelation(oids []OID) bool {
	for _, o := range oids {
		if o.Rel() != oids[0].Rel() {
			return false
		}
	}
	return len(oids) > 0
}

// cachedUnit returns the rows of a unit, from the cache or materialized
// and cached with I-locks on each member.
func (d *Database) cachedUnit(oids []OID, epoch uint64) ([]Row, *tuple.Schema, error) {
	srel, err := d.core.Cat.ByID(oids[0].Rel())
	if err != nil {
		return nil, nil, err
	}
	unit := object.Unit(oids)
	if v, ok, err := d.core.Cache.LookupSnap(unit, epoch); err != nil {
		return nil, nil, err
	} else if ok {
		rows, err := object.DecodeNested(srel.Schema, v)
		return rows, srel.Schema, err
	}
	rows := make([]Row, 0, len(oids))
	for _, oid := range oids {
		t, err := d.Fetch(oid)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, t)
	}
	v, err := object.EncodeNested(srel.Schema, rows)
	if err != nil {
		return nil, nil, err
	}
	return rows, srel.Schema, d.core.Cache.InsertSnap(unit, v, epoch)
}

// cachedProc returns a stored query's result, from the cache or executed
// and cached — procedural × values (the [JHIN88] column). The cache key
// derives from the query text, so two objects storing the same query
// share one entry (outside caching); the I-locks go on the result's
// source tuples, so updating any member invalidates.
func (d *Database) cachedProc(src string, epoch uint64) ([]Row, *tuple.Schema, error) {
	q, err := pql.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	schema, err := pql.ResultSchema(d.core.Cat, q)
	if err != nil {
		return nil, nil, err
	}
	keyUnit := procCacheKey(src)
	if v, ok, err := d.core.Cache.LookupSnap(keyUnit, epoch); err != nil {
		return nil, nil, err
	} else if ok {
		rows, err := object.DecodeNested(schema, v)
		return rows, schema, err
	}
	res, err := d.store.ExecuteSources(q)
	if err != nil {
		return nil, nil, err
	}
	// Only single-relation results report their sources; joins are
	// served uncached (no sound invalidation target).
	if len(res.Sources) == len(res.Tuples) && len(res.Tuples) > 0 {
		locks := make([]object.OID, len(res.Sources), len(res.Sources)+len(q.Relations()))
		for i, s := range res.Sources {
			locks[i] = object.NewOID(s.RelID, s.Key)
		}
		locks = append(locks, d.relLocks(q)...)
		v, err := object.EncodeNested(schema, res.Tuples)
		if err != nil {
			return nil, nil, err
		}
		if err := d.core.Cache.InsertSnapWithLocks(keyUnit, locks, v, epoch); err != nil {
			return nil, nil, err
		}
	}
	return res.Tuples, res.Schema, nil
}

// relLocks returns the relation-level lock of every relation q reads.
func (d *Database) relLocks(q *pql.Query) []object.OID {
	var locks []object.OID
	for _, relName := range q.Relations() {
		if rel, err := d.core.Cat.Get(relName); err == nil {
			locks = append(locks, relLockOID(rel.ID))
		}
	}
	return locks
}

// RetrievePathN answers a query with more than two dots, e.g.
//
//	retrieve (cell.paths.rects.layer)
//
// by resolving each children attribute level in turn ("queries
// involving more than two dots in the target list require more levels
// of relationships to be explored", §3): attrs names the children
// attribute of every level, then the attribute projected from the
// objects the last one reaches. Every level may use any of the three
// representations, as in the same path written as a Query. Like Query,
// it reads no cache: the outside cache holds one level's units, and
// only RetrievePath consults it. Its answer is RetrievePath's: the values
// and one text, which any one value kept keeps whole.
func (d *Database) RetrievePathN(relName string, attrs []string, lo, hi int64) ([]Value, error) {
	if len(attrs) < 2 {
		return nil, errors.New("corep: RetrievePathN needs at least one children attribute and a target")
	}
	return d.retrievePath(relName, attrs, lo, hi, false)
}
