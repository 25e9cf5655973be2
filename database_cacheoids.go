package corep

import (
	"fmt"

	"corep/internal/object"
	"corep/internal/pql"
)

// This file covers the remaining unshaded cell of Figure 1: procedural
// primary representation with cached OIDs (§2.3: "If the primary
// representation is procedural, we can cache the OID's or the values of
// subobjects"). Caching identities is cheaper to store and to maintain
// than caching values, but answering a query still has to fetch each
// subobject — precisely the trade-off between the two cached
// representations.

// CacheMode selects what RetrievePathCached stores for procedural
// children.
type CacheMode uint8

// Cache modes for procedural children. (OID children always cache
// values; caching their identities would be vacuous, the shaded cell of
// Figure 1.)
const (
	// CacheValues stores the materialized subobject values (default).
	CacheValues CacheMode = iota
	// CacheOIDs stores only the subobject identities; retrieval fetches
	// the current values, so updates to members never need to invalidate,
	// only membership changes do (the relation-level lock covers those).
	CacheOIDs
)

// SetCacheMode chooses the cached representation for procedural
// children. It applies to subsequent RetrievePathCached calls; existing
// entries are cleared so the two modes never mix under one key.
func (d *Database) SetCacheMode(m CacheMode) error {
	if d.core.Cache == nil {
		return fmt.Errorf("corep: enable the cache before choosing a mode")
	}
	if m != CacheValues && m != CacheOIDs {
		return fmt.Errorf("corep: unknown cache mode %d", m)
	}
	if d.cacheMode != m {
		if err := d.core.Cache.Clear(); err != nil {
			return err
		}
		d.cacheMode = m
	}
	return nil
}

// cachedProcOIDs is the CacheOIDs variant of cachedProc: the stored
// query's *source identities* are cached and returned; values are
// fetched fresh on every retrieval. A join result carries no usable
// identities and is returned whole instead, uncached.
func (d *Database) cachedProcOIDs(src string) ([]OID, *pql.Result, error) {
	q, err := pql.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	keyUnit := procCacheKey("oids:" + src)
	if v, ok, err := d.core.Cache.Lookup(keyUnit); err != nil {
		return nil, nil, err
	} else if ok {
		oids, err := object.DecodeOIDs(v)
		return oids, nil, err
	}
	res, err := d.store.Execute(q)
	if err != nil {
		return nil, nil, err
	}
	if len(res.Sources) != len(res.Tuples) || len(res.Tuples) == 0 {
		return nil, res, nil
	}
	oids := make([]object.OID, len(res.Sources))
	for i, s := range res.Sources {
		oids[i] = object.NewOID(s.RelID, s.Key)
	}
	// Identities only change when the qualifying set changes, so the
	// entry needs just the relation-level locks — member value updates
	// leave it valid. That is the maintenance advantage of cached OIDs.
	return oids, nil, d.core.Cache.InsertWithLocks(keyUnit, d.relLocks(q), object.EncodeOIDs(oids))
}
