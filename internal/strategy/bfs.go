package strategy

import (
	"slices"

	"corep/internal/catalog"
	"corep/internal/object"
	"corep/internal/query"
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

// tempValuesPerPage estimates how many 8-byte OIDs fit one heap page
// (8 data + 4 slot bytes each, 24-byte header).
const tempValuesPerPage = (2048 - 24) / 12

// sortPassFactor estimates external-sort I/O as a multiple of the temp's
// pages (read input, write runs, read runs during the merge).
const sortPassFactor = 3

func (b bfs) Retrieve(db *workload.DB, q Query) (*Result, error) {
	_, oids, res, err := scanPhase(db, q, "strategy.bfs/scan")
	if err != nil {
		return nil, err
	}

	child := beginIO(db.Core)
	defer func() { res.Split.Child = child.end() }()

	// Form one temporary per child relation, paying heap-file writes.
	tempSp := db.Obs.Start("strategy.bfs/temp")
	level := newTempWriter(db.Pool)
	defer level.close()
	for _, oid := range oids {
		if err := level.add(oid); err != nil {
			return nil, err
		}
	}
	level.close()
	tempSp.SetAttr("relations", int64(len(level.relOrder)))
	tempSp.End()

	for level != nil {
		if level, err = b.joinLevel(db, level, q, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// joinLevel joins each temporary of one level against its relation and
// returns the level the joins filled: nil once every joined relation was
// a last level.
func (b bfs) joinLevel(db *workload.DB, level *tempWriter, q Query, res *Result) (*tempWriter, error) {
	var next *tempWriter
	// Keep relation order deterministic.
	slices.Sort(level.relOrder)
	for _, relID := range level.relOrder {
		rel, err := db.ChildByRelID(relID)
		if err != nil {
			return nil, err
		}
		if next == nil && childrenIdx(rel) >= 0 {
			next = newTempWriter(db.Pool)
			if err := next.reserve(); err != nil {
				return nil, err
			}
		}
		if err := b.joinOne(db, rel, level.temps[relID], q, res, next); err != nil {
			return nil, err
		}
	}
	return next, nil
}

// joinOne joins one temporary against one child relation, choosing the
// join method by an I/O estimate. Whichever it chooses, each tuple the
// join reaches goes through the level's one step (levelStep): into res
// when rel is a last level, into next when it is an inner one.
func (b bfs) joinOne(db *workload.DB, rel *catalog.Relation, tmp *query.Int64Temp, q Query, res *Result, next *tempWriter) error {
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
		sorted, err := query.SortTemp(db.Pool, tmp, tempValuesPerPage*8)
		if err != nil {
			return err
		}
		distinct, err := distinctTemp(db.Pool, sorted)
		if err != nil {
			return err
		}
		tmp = distinct
		n = tmp.Count()
		dedupSp.SetAttr("in", int64(sorted.Count()))
		dedupSp.SetAttr("out", int64(n))
		dedupSp.End()
	}
	tempPages := (n + tempValuesPerPage - 1) / tempValuesPerPage
	probeCost := int64(n) * int64(rel.Tree.Height())
	mergeCost := int64(sortPassFactor*tempPages) + int64(rel.Tree.LeafPages())

	if probeCost <= mergeCost {
		// Iterative substitution: "subobjects are fetched exactly as in
		// DFS" — probes driven by the temp.
		probeSp := db.Obs.Start("strategy.bfs/probe")
		probeSp.SetAttr("values", int64(n))
		defer probeSp.End()
		if !db.Cfg.ProbeBatch || ci >= 0 {
			return tmp.Scan(func(key int64) (bool, error) {
				rec, err := rel.Tree.Get(key)
				if err != nil {
					return false, err
				}
				return take(key, rec)
			})
		}
		// Batched: collect the temp's keys, probe them page-ordered, and
		// emit values in the temp's original order.
		keys := make([]int64, 0, n)
		err := tmp.Scan(func(key int64) (bool, error) {
			keys = append(keys, key)
			return true, nil
		})
		if err != nil {
			return err
		}
		vals := make([]int64, len(keys))
		err = rel.Tree.GetBatch(keys, func(i int, payload []byte) (err error) {
			vals[i], err = childAttr(db, q, object.NewOID(rel.ID, keys[i]), payload)
			return err
		})
		if err != nil {
			return err
		}
		res.Values = append(res.Values, vals...)
		return nil
	}

	// Competitive BFS: sort the temp (already sorted and deduplicated
	// under BFSNODUP) and merge join with the ChildRel leaf scan.
	outerTemp := tmp
	if !b.dedup {
		sorted, err := query.SortTemp(db.Pool, tmp, tempValuesPerPage*8)
		if err != nil {
			return err
		}
		outerTemp = sorted
	}
	if ci < 0 {
		// Every outer value matches at most once.
		res.Values = slices.Grow(res.Values, outerTemp.Count())
	}
	return mergeJoinChild(db, rel, outerTemp, take)
}

func (bfs) Update(db *workload.DB, op workload.Op) error {
	return applyUpdate(db, op, db.ApplyUpdateBase, nil)
}
