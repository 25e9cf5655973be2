package strategy

import (
	"slices"

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

func (s smart) Retrieve(db *workload.DB, q Query) (_ *Result, err error) {
	if q.NumTop() <= s.threshold {
		return dfscache{}.Retrieve(db, q)
	}

	sc, res, err := scanPhase(db, q, "strategy.smart/scan")
	if err != nil {
		return nil, err
	}
	defer sc.release()

	child := beginIO(db.Core)
	bfSp := db.Obs.Start("strategy.smart/bfpass")
	defer bfSp.End()
	// Cached units answer depth-first (one hash probe each); the rest
	// feed per-relation temporaries for merge joins.
	tw := sc.tempWriter(db.Pool)
	defer func() { firstErr(&err, sc.dropWriter(tw)) }()
	for _, p := range sc.parents {
		unit := p.unit
		// The cache probe reads hash-file pages: end the open append run
		// first, so it never spans other pool traffic.
		tw.close()
		if db.Cache.IsCached(unit) {
			// Into the scratch's value buffer, as in DFSCACHE.
			var ok bool
			sc.value, ok, err = db.Cache.AppendLookup(sc.value[:0], unit, q.Snap.Epoch())
			if err != nil {
				return nil, err
			}
			if ok {
				if err := projectUnitValue(db, sc.value, q.AttrIdx, &res.Values); err != nil {
					return nil, err
				}
				continue
			}
		}
		if err := tw.add(unit); err != nil {
			return nil, err
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
		sorted, err := sc.temps.SortTemp(db.Pool, temps[relID], sortWorkMem)
		if err != nil {
			return nil, err
		}
		// Every outer value matches at most once.
		res.Values = slices.Grow(res.Values, sorted.Count())
		err = sc.mergeJoinChild(db, rel, sorted, project(db, rel, q, res))
		firstErr(&err, sorted.Drop())
		if err != nil {
			return nil, err
		}
	}
	res.Split.Child = child.end()
	return res, nil
}

func (smart) Update(db *workload.DB, op workload.Op) error {
	return dfscache{}.Update(db, op)
}
