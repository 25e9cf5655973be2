// Package planner is the cost-based strategy optimizer: where SMART is a
// one-knob hybrid (DFSCACHE below a NumTop threshold, breadth-first
// above it), the planner treats every static strategy as a candidate
// plan, estimates each one's I/O per query from analytic priors, and
// picks the argmin. Like INGRES's optimizer in the paper, it learns no
// costs; the one live input is the cache's warmth, the DFSCACHE prior's
// hit-rate parameter, fed by observed hit rates.
//
// Planner + Planned (adapter.go) is the one planning surface: a
// per-query choice among the workload strategies
// DFS/BFS/BFSNODUP/DFSCACHE/DFSCLUST. (A second model that chose probe
// against batch per pql path step lost its trial to the batch alone —
// EXPERIMENTS.md, earn-your-keep ledger; the per-step choice returns
// when the expansion step has a second operator that can win.)
//
// Determinism is a design constraint: no randomness anywhere, ties
// break in Kind order, and the only state is the warmth — for a given
// warmth, a choice depends on the shape and NumTop alone.
package planner

import (
	"sync"

	"corep/internal/strategy"
)

// Config parameterizes a Planner.
type Config struct {
	// Shape describes the database the plans run against (ShapeOf).
	Shape Shape

	// Seed is ignored: the planner has no randomness and no exploration
	// order left for a seed to drive. It stays so that callers written
	// against the learning planner still compile.
	Seed int64
}

// Decision is the outcome of one Choose call: the chosen kind and its
// estimated pages per query.
type Decision struct {
	Kind strategy.Kind `json:"kind"`
	IO   float64       `json:"io"`
}

// Stats counts a planner's activity. Retrieve them with Planner.Stats.
type Stats struct {
	Choices int64 `json:"choices"`
}

// Planner chooses a workload strategy per query. Safe for concurrent
// use: all state sits behind one mutex.
type Planner struct {
	mu    sync.Mutex
	shape Shape
	cands []strategy.Kind
	stats Stats

	// warmth estimates the steady-state fraction of the queried working
	// set the outside cache can serve, pulled toward observed DFSCACHE
	// hit rates (updates reach it through the hit rates they cost). It
	// starts optimistic (1.0, capacity-capped in the prior): the cache
	// deserves the benefit of the doubt until live hit rates say
	// otherwise, since a cold first run systematically understates a
	// cache that would have warmed under sustained use.
	warmth float64
}

// New builds a planner for the given configuration.
func New(cfg Config) *Planner {
	return &Planner{shape: cfg.Shape, cands: CandidateKinds(cfg.Shape), warmth: 1}
}

// CandidateKinds returns the static kinds a database shape can execute
// while preserving query semantics: BFSNODUP eliminates duplicate
// subobjects, so it is only plan-equivalent to the other strategies
// when the share factor is 1 (no subobject can appear under two
// selected parents); DFSCACHE needs the cache, DFSCLUST the cluster
// relation. SMART is excluded — the planner subsumes it. The kinds come
// in Kind order.
func CandidateKinds(s Shape) []strategy.Kind {
	out := []strategy.Kind{strategy.DFS, strategy.BFS}
	if s.ShareFactor <= 1 {
		out = append(out, strategy.BFSNODUP)
	}
	if s.HasCache {
		out = append(out, strategy.DFSCACHE)
	}
	if s.HasCluster {
		out = append(out, strategy.DFSCLUST)
	}
	return out
}

// Candidates returns the planner's candidate kinds.
func (p *Planner) Candidates() []strategy.Kind {
	return append([]strategy.Kind(nil), p.cands...)
}

// Choose picks the strategy for a query selecting numTop parents: the
// candidate with the lowest prior, ties going to the lower Kind.
func (p *Planner) Choose(numTop int) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Choices++
	best := Decision{Kind: p.cands[0], IO: p.prior(p.cands[0], numTop)}
	for _, k := range p.cands[1:] {
		if io := p.prior(k, numTop); io < best.IO {
			best = Decision{Kind: k, IO: io}
		}
	}
	return best
}

// Observe does nothing: the priors alone decide, and the one learned
// input, warmth, arrives through ObserveHitRate. It stays so that
// callers written against the learning planner still compile.
func (p *Planner) Observe(kind strategy.Kind, numTop int, io int64) {}

// Warmth filter gains: rises are tracked quickly, drops slowly. The
// asymmetry is deliberate — between updates the cached unit set only
// grows, so the achievable hit rate is monotone non-decreasing and a
// low reading from a still-warming cache systematically understates
// where sustained use would land. Trusting cold readings at full
// weight is exactly the feedback loop that writes the cache off before
// it ever warms (the planner stops choosing DFSCACHE, so the rate
// never recovers). Genuine regressions still propagate: sustained low
// readings do pull warmth down.
const (
	warmthRise = 0.5
	warmthFall = 0.05
)

// ObserveHitRate folds a DFSCACHE run's observed cache hit rate into the
// warmth signal that parameterizes the DFSCACHE prior.
func (p *Planner) ObserveHitRate(rate float64) {
	rate = min(max(rate, 0), 1)
	p.mu.Lock()
	if rate >= p.warmth {
		p.warmth += warmthRise * (rate - p.warmth)
	} else {
		p.warmth += warmthFall * (rate - p.warmth)
	}
	p.mu.Unlock()
}

// Stats returns a copy of the activity counters.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
