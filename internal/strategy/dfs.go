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
	sc, res, err := scanPhase(db, q, "strategy.dfs/scan")
	if err != nil {
		return nil, err
	}
	defer sc.release()

	child := beginIO(db.Core)
	probeSp := db.Obs.Start("strategy.dfs/probe")
	// One level makes as many values as OIDs, written straight into the
	// Result's exact-size slice. Inner levels make a number no list
	// tells ahead: the values collect in the scratch, and the Result
	// takes one exact-size copy.
	if !multiLevel(db) {
		res.Values, err = sc.fetchLevel(db, sc.oids, q, nil, 0)
	} else if sc.vals, err = sc.fetchLevel(db, sc.oids, q, sc.vals[:0], 0); err == nil {
		res.Values = append([]int64(nil), sc.vals...)
	}
	if err != nil {
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
// behaviour); inner levels are always probed one at a time. An inner
// subobject's list is decoded into the scratch's buffer for its depth.
func (sc *scratch) fetchLevel(db *workload.DB, oids []object.OID, q Query, out []int64, depth int) ([]int64, error) {
	if db.Cfg.ProbeBatch && lastLevel(db, oids) {
		base := len(out)
		out = append(out, make([]int64, len(oids))...)
		err := db.Cat.ProbeOIDs(&sc.probe, oids, func(i int, _ *catalog.Relation, payload []byte) (err error) {
			out[base+i], err = childAttr(db, q, oids[i], payload)
			return err
		})
		return out, err
	}
	out = slices.Grow(out, len(oids))
	if len(sc.kids) == depth {
		sc.kids = append(sc.kids, nil)
	}
	for _, oid := range oids {
		rel, err := db.ChildByRelID(oid.Rel())
		if err != nil {
			return nil, err
		}
		// The record is read under its leaf pin. An inner level's
		// subobjects are copied out and fetched after the pin is
		// released, so pins never nest.
		ci := childrenIdx(rel)
		err = rel.Tree.View(oid.Key(), func(rec []byte) (err error) {
			if ci >= 0 {
				sc.kids[depth], err = appendChildren(sc.kids[depth][:0], rel, ci, rec)
				return err
			}
			var v int64
			v, err = childAttr(db, q, oid, rec)
			out = append(out, v)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("strategy: subobject %v: %w", oid, err)
		}
		if ci >= 0 {
			if out, err = sc.fetchLevel(db, sc.kids[depth], q, out, depth+1); err != nil {
				return nil, err
			}
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
