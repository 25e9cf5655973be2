package planner

// model is the online estimator: a table of decayed-mean cells keyed by
// (arm, log₂-NumTop bucket). Each observation folds into the cell's
// mean with an exponential per-observation decay, so recent costs
// dominate as the workload shifts.
type model struct {
	cells map[cellKey]*cell
}

type cellKey struct {
	arm    int // strategy.Kind
	bucket int
}

type cell struct {
	mean   float64
	weight float64
}

// decayPerObs discounts prior evidence on each new observation: with
// 0.8, the effective window is the last ~5 observations.
const decayPerObs = 0.8

func newModel() model {
	return model{cells: map[cellKey]*cell{}}
}

// observe folds one measured cost into the (arm, bucket) cell.
func (m *model) observe(arm, bucket int, cost float64) {
	k := cellKey{arm, bucket}
	c := m.cells[k]
	if c == nil {
		c = &cell{}
		m.cells[k] = c
	}
	w := c.weight * decayPerObs
	c.mean = (c.mean*w + cost) / (w + 1)
	c.weight = w + 1
}

// estimate returns the cell's decayed mean and whether its evidence
// clears MinEvidence: above the threshold the observed mean is used
// verbatim, below it the caller falls back to the analytic prior.
func (m *model) estimate(arm, bucket int) (float64, bool) {
	c := m.cells[cellKey{arm, bucket}]
	if c == nil {
		return 0, false
	}
	return c.mean, c.weight >= MinEvidence
}

// everObserved reports whether the cell has received an observation.
func (m *model) everObserved(arm, bucket int) bool {
	return m.cells[cellKey{arm, bucket}] != nil
}
