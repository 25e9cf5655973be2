package strategy

import (
	"fmt"

	"corep/internal/catalog"
	"corep/internal/object"
	"corep/internal/query"
	"corep/internal/tuple"
	"corep/internal/workload"
)

// Deep retrieval answers the three-dot query
//
//	retrieve (ParentRel.children.children.attr) where lo ≤ OID ≤ hi
//
// over a two-level database: "Queries involving more than two dots in
// the target list require more levels of relationships to be explored"
// (§3). Three of the flat strategies generalize level-wise:
//
//	DFS       — recursive probing: parent → mid probes → leaf probes
//	BFS       — per-level temporaries and merge joins, duplicates kept
//	BFSNODUP  — duplicates eliminated before each level's join; §5.1
//	            predicts its benefit grows with the number of levels
//	            "but ... the benefit so obtained is marginal at best"
//
// DeepRetrieve is retrieve-only (the extension experiment runs at
// Pr(UPDATE)=0).
func DeepRetrieve(db *workload.TwoLevelDB, kind Kind, q Query) (*Result, error) {
	switch kind {
	case DFS:
		return deepDFS(db, q)
	case BFS:
		return deepBFS(db, q, false)
	case BFSNODUP:
		return deepBFS(db, q, true)
	default:
		return nil, fmt.Errorf("strategy: %v does not support deep retrieval", kind)
	}
}

// midChildren decodes a MidRel tuple's children attribute.
func midChildren(db *workload.TwoLevelDB, payload []byte) ([]object.OID, error) {
	idx := db.ParentSchema.MustIndex("children")
	raw, err := tuple.FieldBytes(db.ParentSchema, payload, idx)
	if err != nil {
		return nil, err
	}
	return object.DecodeOIDs(raw)
}

func deepDFS(db *workload.TwoLevelDB, q Query) (*Result, error) {
	par := beginIO(db.Core)
	_, mids, err := scanParents(db.DB, q.Lo, q.Hi)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	res.Split.Par = par.end()

	child := beginIO(db.Core)
	mid, leaf := db.Mid(), db.Leaf()
	for _, mo := range mids {
		mrec, err := mid.Tree.Get(mo.Key())
		if err != nil {
			return nil, err
		}
		leaves, err := midChildren(db, mrec)
		if err != nil {
			return nil, err
		}
		for _, lo := range leaves {
			lrec, err := leaf.Tree.Get(lo.Key())
			if err != nil {
				return nil, err
			}
			v, err := tuple.Int(db.ChildSchema, lrec, q.AttrIdx)
			if err != nil {
				return nil, err
			}
			res.Values = append(res.Values, v)
		}
	}
	res.Split.Child = child.end()
	return res, nil
}

func deepBFS(db *workload.TwoLevelDB, q Query, dedup bool) (*Result, error) {
	par := beginIO(db.Core)
	_, mids, err := scanParents(db.DB, q.Lo, q.Hi)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	res.Split.Par = par.end()

	child := beginIO(db.Core)
	defer func() { res.Split.Child = child.end() }()

	// Level 1: mids.
	temp1, err := query.NewInt64Temp(db.Pool)
	if err != nil {
		return nil, err
	}
	w1 := temp1.Appender()
	defer w1.Close()
	for _, mo := range mids {
		if err := w1.Append(mo.Key()); err != nil {
			return nil, err
		}
	}
	w1.Close()
	temp2, err := query.NewInt64Temp(db.Pool)
	if err != nil {
		return nil, err
	}
	err = deepJoin(db, db.Mid(), temp1, dedup, func(payload []byte) error {
		leaves, err := midChildren(db, payload)
		if err != nil {
			return err
		}
		w2 := temp2.Appender()
		defer w2.Close()
		for _, lo := range leaves {
			if err := w2.Append(lo.Key()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Level 2: leaves.
	return res, deepJoin(db, db.Leaf(), temp2, dedup, func(payload []byte) error {
		v, err := tuple.Int(db.ChildSchema, payload, q.AttrIdx)
		if err != nil {
			return err
		}
		res.Values = append(res.Values, v)
		return nil
	})
}

// deepJoin joins a temp of keys against one relation, with the same
// optimizer choice as the flat BFS (iterative substitution vs sort +
// merge join) and optional duplicate elimination first.
func deepJoin(db *workload.TwoLevelDB, rel *catalog.Relation, tmp *query.Int64Temp, dedup bool, emit func(payload []byte) error) error {
	n := tmp.Count()
	if n == 0 {
		return nil
	}
	if dedup {
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
	}
	tempPages := (n + tempValuesPerPage - 1) / tempValuesPerPage
	probeCost := int64(n) * int64(rel.Tree.Height())
	mergeCost := int64(sortPassFactor*tempPages) + int64(rel.Tree.LeafPages())
	if probeCost <= mergeCost {
		return tmp.Scan(func(key int64) (bool, error) {
			rec, err := rel.Tree.Get(key)
			if err != nil {
				return false, err
			}
			return true, emit(rec)
		})
	}
	outer := tmp
	if !dedup {
		sorted, err := query.SortTemp(db.Pool, tmp, tempValuesPerPage*8)
		if err != nil {
			return err
		}
		outer = sorted
	}
	it, err := rel.Tree.SeekFirst()
	if err != nil {
		return err
	}
	defer it.Close()
	return query.MergeJoin(db.Obs, outer.Iter(), it, func(_ int64, payload []byte) (bool, error) {
		return true, emit(payload)
	})
}
