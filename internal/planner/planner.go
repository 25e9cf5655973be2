// Package planner is the cost-based strategy optimizer: where SMART is a
// one-knob hybrid (DFSCACHE below a NumTop threshold, breadth-first
// above it), the planner treats every static strategy as a candidate
// plan, estimates each one's I/O per query from analytic priors plus
// online decayed observations, and picks the argmin — re-estimating as
// the update/retrieve mix shifts, so the choice tracks the workload
// instead of a fixed threshold.
//
// Planner + Planned (adapter.go) is the one planning surface: a
// per-query choice among the workload strategies
// DFS/BFS/BFSNODUP/DFSCACHE/DFSCLUST. (A second model that chose probe
// against batch per pql path step lost its trial to the batch alone —
// EXPERIMENTS.md, earn-your-keep ledger; the per-step choice returns
// when the expansion step has a second operator that can win.)
//
// Determinism is a design constraint: no randomness anywhere, ties
// break in Kind order, and the only state is the decayed estimator
// table — two planners fed the same observation sequence from the same
// seed produce the same decision sequence (the replay property the
// property tests pin down).
package planner

import (
	"sync"

	"corep/internal/strategy"
)

// MinEvidence is the decayed observation weight below which a cell's
// estimate falls back to the analytic prior. Because it takes several
// observations to clear the threshold, an arm whose prior is attractive
// keeps being tried for a few queries before its measured cost takes
// over. That grace period is what lets a state-dependent strategy
// (DFSCACHE warming its cache) show its steady-state cost rather than
// being written off on one cold probe.
const MinEvidence = 3.0

// ProbeWorthFactor bounds exploration: an arm is only given its warmup
// probe while its estimate is within this factor of the current best.
// Re-estimation matters near the decision boundary; measuring an arm
// whose prior is hopeless just pays its cost for nothing.
const ProbeWorthFactor = 3.0

// Config parameterizes a Planner.
type Config struct {
	// Shape describes the database the plans run against (ShapeOf).
	Shape Shape

	// Seed rotates the warmup order so plans are replayable from a seed
	// without being tied to one fixed exploration order.
	Seed int64
}

// Estimate is one candidate's scored plan.
type Estimate struct {
	Kind strategy.Kind `json:"kind"`
	// IO is the estimated pages per query.
	IO float64 `json:"io"`
	// Observed reports whether the estimate comes from live measurements
	// (true) or the analytic prior (false).
	Observed bool `json:"observed"`
}

// Decision is the outcome of one Choose call.
type Decision struct {
	Kind strategy.Kind `json:"kind"`
	// Est is the chosen candidate's estimate.
	Est Estimate `json:"est"`
	// Probe marks a forced exploration choice (an arm's warmup
	// measurement) rather than an argmin exploitation.
	Probe bool `json:"probe,omitempty"`
	// Alternatives lists every candidate's estimate, in candidate order.
	Alternatives []Estimate `json:"alternatives,omitempty"`
}

// Stats counts a planner's activity. Retrieve them with Planner.Stats.
type Stats struct {
	Choices  int64 `json:"choices"`
	Probes   int64 `json:"probes"`
	Observed int64 `json:"observed"`
	Switches int64 `json:"switches"` // choice differed from the bucket's previous choice
}

// Planner chooses a workload strategy per query. Safe for concurrent
// use: all state sits behind one mutex.
type Planner struct {
	mu    sync.Mutex
	cfg   Config
	cands []strategy.Kind
	model model
	stats Stats

	// lastChoice remembers each bucket's previous decision for the
	// Switches counter.
	lastChoice map[int]strategy.Kind
	// warmth estimates the steady-state fraction of the queried working
	// set the outside cache can serve, pulled toward observed DFSCACHE
	// hit rates (updates reach it through the hit rates they cost). It
	// starts optimistic (1.0, capacity-capped in the prior): the cache
	// deserves the benefit of the doubt until live hit rates say
	// otherwise, since a cold first probe systematically understates a
	// cache that would have warmed under sustained use.
	warmth float64
}

// New builds a planner for the given configuration.
func New(cfg Config) *Planner {
	return &Planner{
		cfg:        cfg,
		cands:      CandidateKinds(cfg.Shape),
		model:      newModel(),
		lastChoice: map[int]strategy.Kind{},
		warmth:     1,
	}
}

// CandidateKinds returns the static kinds a database shape can execute
// while preserving query semantics: BFSNODUP eliminates duplicate
// subobjects, so it is only plan-equivalent to the other strategies
// when the share factor is 1 (no subobject can appear under two
// selected parents); DFSCACHE needs the cache, DFSCLUST the cluster
// relation. SMART is excluded — the planner subsumes it.
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

// bucketOf maps NumTop onto a log₂ bucket, so estimates generalize
// across nearby query widths without conflating 1-parent probes with
// 1000-parent scans.
func bucketOf(numTop int) int {
	if numTop < 1 {
		numTop = 1
	}
	b := 0
	for numTop > 1 {
		numTop >>= 1
		b++
	}
	return b
}

// Choose picks the strategy for a query selecting numTop parents. The
// decision is deterministic in (config, observation history).
func (p *Planner) Choose(numTop int) Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	bucket := bucketOf(numTop)
	p.stats.Choices++

	ests := make([]Estimate, len(p.cands))
	for i, k := range p.cands {
		mean, evid := p.model.estimate(int(k), bucket)
		if evid {
			ests[i] = Estimate{Kind: k, IO: mean, Observed: true}
		} else {
			ests[i] = Estimate{Kind: k, IO: p.prior(k, numTop), Observed: false}
		}
	}

	// Argmin estimated I/O; ties break toward the lower Kind so plans
	// are stable and replayable.
	best := 0
	for i := 1; i < len(ests); i++ {
		if ests[i].IO < ests[best].IO {
			best = i
		}
	}

	// Warmup: a candidate never measured in this bucket is probed before
	// its estimate is trusted — but only while its prior sits within
	// ProbeWorthFactor of the best, so hopeless plans are never paid for.
	// Seed-rotated order keeps plans replayable from a seed without a
	// fixed exploration order.
	rot := int(p.cfg.Seed%int64(len(p.cands))+int64(len(p.cands))) % len(p.cands)
	for i := range p.cands {
		j := (i + rot) % len(p.cands)
		if !p.model.everObserved(int(p.cands[j]), bucket) && ests[j].IO <= ests[best].IO*ProbeWorthFactor {
			p.stats.Probes++
			d := Decision{Kind: p.cands[j], Est: ests[j], Probe: true, Alternatives: ests}
			p.noteChoice(bucket, d.Kind)
			return d
		}
	}

	d := Decision{Kind: p.cands[best], Est: ests[best], Alternatives: ests}
	p.noteChoice(bucket, d.Kind)
	return d
}

func (p *Planner) noteChoice(bucket int, k strategy.Kind) {
	if prev, ok := p.lastChoice[bucket]; ok && prev != k {
		p.stats.Switches++
	}
	p.lastChoice[bucket] = k
}

// Observe feeds one measured execution back: kind answered a
// numTop-parent query in io pages.
func (p *Planner) Observe(kind strategy.Kind, numTop int, io int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Observed++
	p.model.observe(int(kind), bucketOf(numTop), float64(io))
}

// Warmth filter gains: rises are tracked quickly, drops slowly. The
// asymmetry is deliberate — between updates the cached unit set only
// grows, so the achievable hit rate is monotone non-decreasing and a
// low reading from a still-warming cache systematically understates
// where sustained use would land. Trusting cold readings at full
// weight is exactly the feedback loop that writes the cache off before
// it ever warms (the planner stops choosing DFSCACHE, so the rate
// never recovers). Genuine regressions still propagate: sustained low
// readings do pull warmth down, and once a cell has real evidence the
// observed mean outranks the warmth-driven prior anyway.
const (
	warmthRise = 0.5
	warmthFall = 0.05
)

// ObserveHitRate folds a DFSCACHE run's observed cache hit rate into the
// warmth signal that parameterizes the DFSCACHE prior.
func (p *Planner) ObserveHitRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	p.mu.Lock()
	if rate >= p.warmth {
		p.warmth += warmthRise * (rate - p.warmth)
	} else {
		p.warmth += warmthFall * (rate - p.warmth)
	}
	p.mu.Unlock()
}

// Warmth returns the current cache-warmth estimate (the DFSCACHE
// prior's hit-rate parameter).
func (p *Planner) Warmth() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.warmth
}

// Stats returns a copy of the activity counters.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
