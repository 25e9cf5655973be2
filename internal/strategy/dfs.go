package strategy

import "corep/internal/workload"

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
	// Probe the qualifying parents' child OIDs in one page-ordered batch;
	// the output order is the per-OID loop's.
	if len(oids) > 0 {
		res.Values = make([]int64, len(oids))
		if err := fetchChildAttrs(db, oids, q.AttrIdx, res.Values); err != nil {
			return nil, err
		}
		overlayValues(q.Snap, oids, q.AttrIdx, res.Values)
	}
	probeSp.SetAttr("values", int64(len(res.Values)))
	probeSp.End()
	res.Split.Child = child.end()
	return res, nil
}

func (dfs) Update(db *workload.DB, op workload.Op) error {
	return applyUpdate(db, op, db.ApplyUpdateBase, nil)
}
