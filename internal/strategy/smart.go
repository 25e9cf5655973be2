package strategy

import (
	"slices"

	"corep/internal/query"
	"corep/internal/workload"
)

// smart is the hybrid of §5.3: "When the query has a low NumTop, use
// DFSCACHE, and maintain the cache. However, if NumTop > N …, use a
// breadth-first strategy, and do not try to maintain cache. In other
// words, scan the NumTop tuples and collect into temp the OID's whose
// units are not cached; and then implement the merge-join. The status of
// the cache remains invariant during the execution of the breadth-first
// strategy."
type smart struct {
	threshold int // N
}

func (smart) Kind() Kind { return SMART }

func (s smart) Retrieve(db *workload.DB, q Query) (*Result, error) {
	if q.NumTop() <= s.threshold {
		return dfscache{}.Retrieve(db, q)
	}

	parents, _, res, err := scanPhase(db, q, "strategy.smart/scan")
	if err != nil {
		return nil, err
	}

	child := beginIO(db.Core)
	bfSp := db.Obs.Start("strategy.smart/bfpass")
	defer bfSp.End()
	// Cached units answer depth-first (one hash probe each); the rest
	// feed per-relation temporaries for merge joins.
	tw := newTempWriter(db.Pool)
	defer tw.close()
	var value []byte // one buffer for every cached unit read, as in DFSCACHE
	for _, p := range parents {
		unit := p.unit
		// The cache probe reads hash-file pages: end the open append run
		// first, so it never spans other pool traffic.
		tw.close()
		if db.Cache.IsCached(unit) {
			var ok bool
			value, ok, err = db.Cache.AppendLookup(value[:0], unit, q.Snap.Epoch())
			if err != nil {
				return nil, err
			}
			if ok {
				if err := projectUnitValue(db, value, q.AttrIdx, &res.Values); err != nil {
					return nil, err
				}
				continue
			}
		}
		for _, oid := range unit {
			if err := tw.add(oid); err != nil {
				return nil, err
			}
		}
	}
	tw.close()
	temps, relOrder := tw.temps, tw.relOrder
	slices.Sort(relOrder)
	for _, relID := range relOrder {
		rel, err := db.ChildByRelID(relID)
		if err != nil {
			return nil, err
		}
		sorted, err := query.SortTemp(db.Pool, temps[relID], tempValuesPerPage*8)
		if err != nil {
			return nil, err
		}
		// Every outer value matches at most once.
		res.Values = slices.Grow(res.Values, sorted.Count())
		if err := mergeJoinChild(db, rel, sorted, project(db, rel, q, res)); err != nil {
			return nil, err
		}
	}
	res.Split.Child = child.end()
	return res, nil
}

func (smart) Update(db *workload.DB, op workload.Op) error {
	return dfscache{}.Update(db, op)
}
