package pql

import (
	"cmp"
	"fmt"
	"math"
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
	// Op names the operator: range-scan, full-scan, filter,
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
		p.scan(rel, q.Where)
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
		p.scan(outer, nil)
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
	p.scan(rel, q.Where)
	segs := append([]string{pt.Attr}, pt.Path...)
	for i := 0; i+1 < len(segs); i++ {
		p.Steps = append(p.Steps, PlanStep{Op: "expand", Rel: segs[i]})
	}
	p.Steps = append(p.Steps, PlanStep{Op: "project", Rel: segs[len(segs)-1]})
	return p, nil
}

// scan appends the scan of rel a predicate where selects from: a range
// scan when where bounds the key, then the filter of what the scan
// leaves of where to check (residual), if anything.
func (p *Plan) scan(rel *catalog.Relation, where Expr) {
	step := PlanStep{Op: "full-scan", Rel: rel.Name}
	if where != nil {
		if lo, hi := keyRange(rel, where); lo > math.MinInt64 || hi < math.MaxInt64 {
			step = PlanStep{Op: "range-scan", Rel: rel.Name, Detail: fmt.Sprintf("[%d,%d]", lo, hi)}
		}
	}
	p.Steps = append(p.Steps, step)
	if rest := residual(rel, where); rest != nil {
		p.Steps = append(p.Steps, PlanStep{Op: "filter", Rel: rel.Name, Detail: rest.String()})
	}
}

// residual is what a scan of rel bounded to keyRange leaves of x to
// check, as bindExpr binds it: x without its top-level conjuncts that
// compare rel's key with an integer constant (keyBound), nil when none
// is left.
func residual(rel *catalog.Relation, x Expr) Expr {
	switch v := x.(type) {
	case *BinBool:
		if v.Op == "and" {
			l, r := residual(rel, v.L), residual(rel, v.R)
			if l == nil || r == nil {
				return cmp.Or(l, r)
			}
			return &BinBool{Op: "and", L: l, R: r}
		}
	case *Compare:
		if _, _, ok := keyBound(rel, v); ok {
			return nil
		}
	}
	return x
}
