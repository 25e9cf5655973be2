package strategy

import (
	"slices"

	"corep/internal/catalog"
	"corep/internal/object"
	"corep/internal/query"
	"corep/internal/storage"
	"corep/internal/workload"
)

// bfs is the breadth-first strategy (§3.1 [2]): collect the OIDs of the
// qualifying parents into a temporary relation, then join it with
// ChildRel. "The optimal joining strategy in this query depends on the
// sizes of the relations involved. Iterative substitution is best when
// temp is small … merge-join is the optimal strategy when the size of
// the temporary is large." With dedup set, duplicates are eliminated
// before the join (BFSNODUP, §3.1 [3]).
//
// With NumChildRel > 1 the strategy keeps one temporary per child
// relation and runs one join each (§6.2). Where the joined relation is
// an inner level, the join fills the next level's temporaries instead of
// the result and they are joined in turn — the same join per level, so
// BFSNODUP eliminates duplicates before each (§5.1).
type bfs struct {
	dedup bool
}

func (b bfs) Kind() Kind {
	if b.dedup {
		return BFSNODUP
	}
	return BFS
}

// sortWorkMem is the work memory of the sort feeding a join: eight heap
// pages of OIDs.
const sortWorkMem = 8 * storage.Int64sPerPage

// sortPassFactor estimates external-sort I/O as a multiple of the temp's
// pages (read input, write runs, read runs during the merge).
const sortPassFactor = 3

func (b bfs) Retrieve(db *workload.DB, q Query) (_ *Result, err error) {
	sc, res, err := scanPhase(db, q, "strategy.bfs/scan")
	if err != nil {
		return nil, err
	}
	defer sc.release()

	child := beginIO(db.Core)
	defer func() { res.Split.Child = child.end() }()

	// Form one temporary per child relation, paying heap-file writes.
	tempSp := db.Obs.Start("strategy.bfs/temp")
	level := sc.tempWriter(db.Pool)
	defer func() { firstErr(&err, sc.dropWriter(level)) }()
	if err := level.add(sc.oids); err != nil {
		return nil, err
	}
	level.close()
	tempSp.SetAttr("relations", int64(len(level.relOrder)))
	tempSp.End()

	// A level's temporaries are dropped as soon as its joins are done.
	for level != nil {
		next, err := b.joinLevel(db, sc, level, q, res)
		firstErr(&err, sc.dropWriter(level))
		level = next
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// joinLevel joins each temporary of one level against its relation and
// returns the level the joins filled, a writer lent by sc: nil once
// every joined relation was a last level. On an error the partly filled
// level is returned too, for the caller to drop.
func (b bfs) joinLevel(db *workload.DB, sc *scratch, level *tempWriter, q Query, res *Result) (*tempWriter, error) {
	var next *tempWriter
	// Keep relation order deterministic.
	slices.Sort(level.relOrder)
	for _, relID := range level.relOrder {
		rel, err := db.ChildByRelID(relID)
		if err != nil {
			return next, err
		}
		if next == nil && childrenIdx(rel) >= 0 {
			next = sc.tempWriter(db.Pool)
			if err := next.reserve(); err != nil {
				return next, err
			}
		}
		if err := b.joinOne(db, sc, rel, level.temps[relID], q, res, next); err != nil {
			return next, err
		}
	}
	return next, nil
}

// joinOne joins one temporary against one child relation, choosing the
// join method by an I/O estimate, in the retrieve's scratch sc. Whichever
// it chooses, each tuple the join reaches goes through the level's one
// step (levelStep): into res when rel is a last level, into next when it
// is an inner one.
func (b bfs) joinOne(db *workload.DB, sc *scratch, rel *catalog.Relation, tmp *query.Int64Temp, q Query, res *Result, next *tempWriter) (err error) {
	n := tmp.Count()
	if n == 0 {
		return nil
	}
	ci := childrenIdx(rel)
	take := project(db, rel, q, res)
	if ci >= 0 {
		take = next.takeChildren(rel, ci)
	}
	if b.dedup {
		// BFSNODUP: "eliminate the duplicates before executing the above
		// query" — sort the temp and keep distinct OIDs, then join with
		// whichever method the (smaller) deduplicated temp favours.
		dedupSp := db.Obs.Start("strategy.bfs/dedup")
		sorted, err := sc.temps.SortTemp(db.Pool, tmp, sortWorkMem)
		if err != nil {
			return err
		}
		defer func() { firstErr(&err, sorted.Drop()) }()
		distinct, err := sc.distinctTemp(db.Pool, sorted)
		if err != nil {
			return err
		}
		defer func() { firstErr(&err, distinct.Drop()) }()
		tmp = distinct
		n = tmp.Count()
		dedupSp.SetAttr("in", int64(sorted.Count()))
		dedupSp.SetAttr("out", int64(n))
		dedupSp.End()
	}
	if ci < 0 {
		// Every value of the temporary matches once at most.
		res.Values = slices.Grow(res.Values, n)
	}
	tempPages := (n + storage.Int64sPerPage - 1) / storage.Int64sPerPage
	probeCost := int64(n) * int64(rel.Tree.Height())
	mergeCost := int64(sortPassFactor*tempPages) + int64(rel.Tree.LeafPages())

	if probeCost <= mergeCost {
		// Iterative substitution: "subobjects are fetched exactly as in
		// DFS" — probes driven by the temp.
		probeSp := db.Obs.Start("strategy.bfs/probe")
		probeSp.SetAttr("values", int64(n))
		defer probeSp.End()
		if !db.Cfg.ProbeBatch || ci >= 0 {
			// Each record is copied off its leaf into the scratch's value
			// buffer and taken after the pin is released: an inner
			// level's step touches the pool.
			return tmp.Scan(func(key int64) (bool, error) {
				err := rel.Tree.View(key, func(payload []byte) error {
					sc.value = append(sc.value[:0], payload...)
					return nil
				})
				if err != nil {
					return false, err
				}
				return take(key, sc.value)
			})
		}
		// Batched: collect the temp's keys in the scratch, probe them
		// page-ordered, and emit values in the temp's original order,
		// each into its place in the result.
		keys, err := tmp.ReadAll(sc.keys[:0])
		sc.keys = keys
		if err != nil {
			return err
		}
		base := len(res.Values)
		res.Values = slices.Grow(res.Values, len(keys))[:base+len(keys)]
		vals := res.Values[base:]
		return rel.Tree.GetBatchIn(&sc.order, keys, func(i int, payload []byte) (err error) {
			vals[i], err = childAttr(db, q, object.NewOID(rel.ID, keys[i]), payload)
			return err
		})
	}

	// Competitive BFS: sort the temp (already sorted and deduplicated
	// under BFSNODUP) and merge join with the ChildRel leaf scan.
	outerTemp := tmp
	if !b.dedup {
		sorted, err := sc.temps.SortTemp(db.Pool, tmp, sortWorkMem)
		if err != nil {
			return err
		}
		defer func() { firstErr(&err, sorted.Drop()) }()
		outerTemp = sorted
	}
	return sc.mergeJoinChild(db, rel, outerTemp, take)
}

func (bfs) Update(db *workload.DB, op workload.Op) error {
	return applyUpdate(db, op, db.ApplyUpdateBase, nil)
}
