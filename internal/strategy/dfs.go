package strategy

import (
	"fmt"
	"slices"

	"corep/internal/catalog"
	"corep/internal/object"
	"corep/internal/workload"
)

// dfs is the plain depth-first strategy (§3.1 [1]): "For each OID of
// 'elders', fetch the corresponding subobject from the relation person,
// and return its name." It is an index nested-loop join between
// ParentRel and ChildRel, so its child cost grows linearly with NumTop.
type dfs struct{}

func (dfs) Kind() Kind { return DFS }

func (dfs) Retrieve(db *workload.DB, q Query) (*Result, error) {
	_, oids, res, err := scanPhase(db, q, "strategy.dfs/scan")
	if err != nil {
		return nil, err
	}

	child := beginIO(db.Core)
	probeSp := db.Obs.Start("strategy.dfs/probe")
	if res.Values, err = fetchLevel(db, oids, q, nil); err != nil {
		return nil, err
	}
	probeSp.SetAttr("values", int64(len(res.Values)))
	probeSp.End()
	res.Split.Child = child.end()
	return res, nil
}

// fetchLevel appends to out what q projects from the subobjects oids
// name, in list order and depth-first: an inner-level subobject is
// probed and its own subobjects are fetched before the next OID is
// looked at. Config.ProbeBatch turns a list of last-level subobjects —
// every list of the paper's two-dot query — into one page-ordered sweep
// per relation through the catalog's grouped ProbeOIDs, the output order
// staying that of the one-probe-at-a-time loop (the paper's INGRES
// behaviour); inner levels are always probed one at a time.
func fetchLevel(db *workload.DB, oids []object.OID, q Query, out []int64) ([]int64, error) {
	if db.Cfg.ProbeBatch && lastLevel(db, oids) {
		base := len(out)
		out = append(out, make([]int64, len(oids))...)
		err := db.Cat.ProbeOIDs(oids, func(i int, _ *catalog.Relation, payload []byte) (err error) {
			out[base+i], err = childAttr(db, q, oids[i], payload)
			return err
		})
		return out, err
	}
	out = slices.Grow(out, len(oids))
	var kids []object.OID
	for _, oid := range oids {
		rel, err := db.ChildByRelID(oid.Rel())
		if err != nil {
			return nil, err
		}
		rec, err := rel.Tree.Get(oid.Key())
		if err != nil {
			return nil, fmt.Errorf("strategy: subobject %v: %w", oid, err)
		}
		if ci := childrenIdx(rel); ci >= 0 {
			if kids, err = appendChildren(kids[:0], rel, ci, rec); err == nil {
				out, err = fetchLevel(db, kids, q, out)
			}
		} else {
			var v int64
			v, err = childAttr(db, q, oid, rec)
			out = append(out, v)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lastLevel reports whether oids names last-level subobjects only.
func lastLevel(db *workload.DB, oids []object.OID) bool {
	return !multiLevel(db) || !slices.ContainsFunc(oids, func(oid object.OID) bool {
		rel, err := db.ChildByRelID(oid.Rel())
		return err == nil && childrenIdx(rel) >= 0
	})
}

func (dfs) Update(db *workload.DB, op workload.Op) error {
	return applyUpdate(db, op, db.ApplyUpdateBase, nil)
}
