package pql

import (
	"fmt"
	"strings"

	"corep/internal/catalog"
)

// Plan describes how a query would execute: one step per operator, in
// pipeline order. It is the corepquery \plan surface.
type Plan struct {
	Query string     `json:"query"`
	Steps []PlanStep `json:"steps"`
}

// PlanStep is one operator of a plan.
type PlanStep struct {
	// Op names the operator: range-scan, full-scan, heap-scan, filter,
	// expand, index-nested-loop, nested-loop, project.
	Op string `json:"op"`
	// Rel is the relation (or path segment) the operator touches.
	Rel string `json:"rel"`
	// Detail carries operator-specific notes (bounds, the predicate).
	Detail string `json:"detail,omitempty"`
}

func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %s\n", p.Query)
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "  %d. %-18s %-12s", i+1, s.Op, s.Rel)
		if s.Detail != "" {
			fmt.Fprintf(&b, "  %s", s.Detail)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Explain reports the plan for q without executing it. The options are
// those Execute takes; no plan depends on them.
func Explain(cat *catalog.Catalog, q *Query, _ ExecOpts) (*Plan, error) {
	p := &Plan{Query: q.String()}
	for _, t := range q.Targets {
		if t.Pathy() {
			return explainPath(cat, q, t, p)
		}
	}
	rels := q.Relations()
	switch len(rels) {
	case 1:
		rel, err := cat.Get(rels[0])
		if err != nil {
			return nil, err
		}
		p.Steps = append(p.Steps, scanStep(rel, q.Where))
		if q.Where != nil {
			p.Steps = append(p.Steps, PlanStep{Op: "filter", Rel: rels[0], Detail: q.Where.String()})
		}
		p.Steps = append(p.Steps, PlanStep{Op: "project", Rel: rels[0]})
		return p, nil
	case 2:
		outer, err := cat.Get(rels[0])
		if err != nil {
			return nil, err
		}
		inner, err := cat.Get(rels[1])
		if err != nil {
			return nil, err
		}
		p.Steps = append(p.Steps, scanStep(outer, nil))
		join := PlanStep{Op: "nested-loop", Rel: rels[1]}
		if q.Where != nil && indexProbeCol(inner, outer, q.Where) != nil {
			join.Op = "index-nested-loop"
			join.Detail = "probe inner key per outer row"
		}
		p.Steps = append(p.Steps, join, PlanStep{Op: "project", Rel: rels[0] + "⋈" + rels[1]})
		return p, nil
	default:
		return nil, fmt.Errorf("%w: cannot explain %d-relation query", ErrExec, len(rels))
	}
}

func explainPath(cat *catalog.Catalog, q *Query, pt Target, p *Plan) (*Plan, error) {
	rel, err := cat.Get(pt.Rel)
	if err != nil {
		return nil, err
	}
	p.Steps = append(p.Steps, scanStep(rel, q.Where))
	if q.Where != nil {
		p.Steps = append(p.Steps, PlanStep{Op: "filter", Rel: pt.Rel, Detail: q.Where.String()})
	}
	segs := append([]string{pt.Attr}, pt.Path...)
	for i := 0; i+1 < len(segs); i++ {
		p.Steps = append(p.Steps, PlanStep{Op: "expand", Rel: segs[i]})
	}
	p.Steps = append(p.Steps, PlanStep{Op: "project", Rel: segs[len(segs)-1]})
	return p, nil
}

func scanStep(rel *catalog.Relation, where Expr) PlanStep {
	switch rel.Kind {
	case catalog.KindBTree:
		if where != nil {
			if lo, hi := keyRange(rel, where); lo > -1<<62 || hi < 1<<62 {
				return PlanStep{Op: "range-scan", Rel: rel.Name, Detail: fmt.Sprintf("[%d,%d]", lo, hi)}
			}
		}
		return PlanStep{Op: "full-scan", Rel: rel.Name}
	case catalog.KindHeap:
		return PlanStep{Op: "heap-scan", Rel: rel.Name}
	}
	return PlanStep{Op: "scan", Rel: rel.Name}
}
