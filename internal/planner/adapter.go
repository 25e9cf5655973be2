package planner

import (
	"fmt"

	"corep/internal/strategy"
	"corep/internal/workload"
)

// Planned adapts a Planner to the strategy.Strategy interface: each
// Retrieve asks the planner for a plan, executes the chosen static
// strategy, and feeds a DFSCACHE run's hit rate back. It interleaves
// freely with the harness's static strategies because it *is* one of
// them per query — the differential suite leans on exactly that.
type Planned struct {
	P       *Planner
	statics map[strategy.Kind]strategy.Strategy
}

// NewPlanned builds the adaptive strategy over db. When p is nil a
// fresh planner is derived from the database's shape.
func NewPlanned(db *workload.DB, p *Planner) (*Planned, error) {
	if p == nil {
		p = New(Config{Shape: ShapeOf(db)})
	}
	statics := map[strategy.Kind]strategy.Strategy{}
	for _, k := range p.Candidates() {
		st, err := strategy.New(k, db)
		if err != nil {
			return nil, fmt.Errorf("planner: candidate %s: %w", k, err)
		}
		statics[k] = st
	}
	if len(statics) == 0 {
		return nil, fmt.Errorf("planner: no executable candidates")
	}
	return &Planned{P: p, statics: statics}, nil
}

// Kind identifies the adaptive dispatcher.
func (pl *Planned) Kind() strategy.Kind { return strategy.Planned }

// Retrieve plans and executes. The returned rows are exactly what the
// chosen static strategy produced; Split carries its measured cost.
func (pl *Planned) Retrieve(db *workload.DB, q strategy.Query) (*strategy.Result, error) {
	d := pl.P.Choose(q.NumTop())
	st := pl.statics[d.Kind]

	var hits0, miss0 int64
	if d.Kind == strategy.DFSCACHE && db.Cache != nil {
		cs := db.Cache.Stats()
		hits0, miss0 = cs.Hits, cs.Misses
	}

	res, err := st.Retrieve(db, q)
	if err != nil {
		return nil, err
	}
	if d.Kind == strategy.DFSCACHE && db.Cache != nil {
		cs := db.Cache.Stats()
		if dh, dm := cs.Hits-hits0, cs.Misses-miss0; dh+dm > 0 {
			pl.P.ObserveHitRate(float64(dh) / float64(dh+dm))
		}
	}
	return res, nil
}

// Update applies op through every layout the candidates read, mirroring
// the composite write-through the differential harness uses so all
// candidate plans stay result-equivalent afterwards: the cache-aware
// path (which both writes base pages and repairs the outside cache)
// when a cache exists, plain base-page writes otherwise, plus the
// cluster layout when one is built.
func (pl *Planned) Update(db *workload.DB, op workload.Op) error {
	if st, ok := pl.statics[strategy.DFSCACHE]; ok {
		if err := st.Update(db, op); err != nil {
			return err
		}
	} else if err := pl.statics[strategy.DFS].Update(db, op); err != nil {
		return err
	}
	if db.ClusterRel != nil && !db.Versioned() {
		return db.ApplyUpdateCluster(op)
	}
	return nil
}
