package corep

import "corep/internal/pql"

// ExplainQuery reports the plan for a retrieve statement without
// executing it: the operator pipeline. The corepquery \plan command
// prints this.
func (d *Database) ExplainQuery(src string) (*pql.Plan, error) {
	q, err := pql.Parse(src)
	if err != nil {
		return nil, err
	}
	return pql.Explain(d.core.Cat, q, pql.ExecOpts{})
}
