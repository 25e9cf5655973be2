package corep

// Cost-based planning for the object API: EnablePlanner installs a
// planner.PathModel that chooses, per OID list a multi-dot retrieval
// expands and per relation the list references, between one index probe
// per subobject and a batched page-ordered fetch, learning from measured
// page reads. Query, RetrievePath, RetrievePathN and RetrievePathCached
// expand paths through the same pql.Expander, so they are planned — and
// counted — alike. Default-off: without EnablePlanner every expansion is
// the page-ordered batch, which never reads more pages than probing.

import (
	"corep/internal/planner"
	"corep/internal/pql"
)

// EnablePlanner turns on cost-based traversal planning for pql path
// queries and the RetrievePath family. Idempotent; there is no way to
// disable it short of reopening the database (estimates are cheap and
// harmless).
func (d *Database) EnablePlanner() {
	if d.planner == nil {
		d.planner = planner.NewPathModel(0)
	}
}

// PlannerStats summarizes planner activity for Snapshot().
type PlannerStats struct {
	// Plans counts planned executions: Query and RetrievePath-family
	// calls made with the planner on.
	Plans int64
	// ProbeChosen / BatchChosen count per-step traversal choices.
	ProbeChosen int64
	BatchChosen int64
	// Warmup counts forced exploration choices (each (relation, fan-out
	// bucket) measures both operators once before trusting estimates).
	Warmup int64
}

func (d *Database) plannerStats() *PlannerStats {
	if d.planner == nil {
		return nil
	}
	probe, batch, warm := d.planner.Counts()
	return &PlannerStats{
		Plans:       d.plannerPlans,
		ProbeChosen: probe,
		BatchChosen: batch,
		Warmup:      warm,
	}
}

// plannerOpts builds the pql execution options of one call: zero (the
// unplanned executor) until EnablePlanner.
func (d *Database) plannerOpts() pql.ExecOpts {
	if d.planner == nil {
		return pql.ExecOpts{}
	}
	d.plannerPlans++
	return pql.ExecOpts{
		Planner: d.planner,
		IOStat:  func() int64 { return d.core.Disk.Stats().Reads },
	}
}

// ExplainQuery reports the plan for a retrieve statement without
// executing it: the operator pipeline, and — with the planner enabled —
// the traversal the cost model would currently choose per expansion
// step. The corepquery \plan command prints this.
func (d *Database) ExplainQuery(src string) (*pql.Plan, error) {
	q, err := pql.Parse(src)
	if err != nil {
		return nil, err
	}
	var opts pql.ExecOpts
	if d.planner != nil {
		opts.Planner = d.planner
	}
	return pql.Explain(d.core.Cat, q, opts)
}
