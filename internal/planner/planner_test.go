package planner

import (
	"testing"

	"corep/internal/strategy"
)

// testShape is a small database shape on which every candidate kind is
// executable (cache and cluster present, share factor 1).
func testShape() Shape {
	return Shape{
		ParentHeight: 2, ParentLeaves: 24,
		ChildHeight: 3, ChildLeaves: 120,
		SizeUnit: 5, ShareFactor: 1, NumChildRel: 1,
		HasCache: true, CacheUnits: 1500,
		HasCluster: true, ClusterHeight: 2, ClusterCoverage: 1,
	}
}

func TestCandidateKinds(t *testing.T) {
	s := testShape()
	got := CandidateKinds(s)
	want := []strategy.Kind{strategy.DFS, strategy.BFS, strategy.BFSNODUP, strategy.DFSCACHE, strategy.DFSCLUST}
	if len(got) != len(want) {
		t.Fatalf("CandidateKinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CandidateKinds = %v, want %v", got, want)
		}
	}

	s.ShareFactor = 5
	for _, k := range CandidateKinds(s) {
		if k == strategy.BFSNODUP {
			t.Fatal("BFSNODUP offered at share factor 5: it drops duplicate subobjects, so its rows diverge from the other plans")
		}
	}
	s = testShape()
	s.HasCache = false
	for _, k := range CandidateKinds(s) {
		if k == strategy.DFSCACHE {
			t.Fatal("DFSCACHE offered without a cache")
		}
	}
	s = testShape()
	s.HasCluster = false
	for _, k := range CandidateKinds(s) {
		if k == strategy.DFSCLUST {
			t.Fatal("DFSCLUST offered without a cluster relation")
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 8: 3, 512: 9, 1000: 9}
	for nt, want := range cases {
		if got := bucketOf(nt); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", nt, got, want)
		}
	}
}

// TestDominatedNeverChosen is the monotonicity property: once every arm
// has real evidence, a strictly dominated arm (everyone measures
// cheaper) is never picked by a non-probe decision.
func TestDominatedNeverChosen(t *testing.T) {
	p := New(Config{Shape: testShape(), Seed: 3})
	const nt = 8
	// Give every arm solid evidence; BFS dominates, DFS is dominated.
	cost := map[strategy.Kind]int64{
		strategy.DFS: 500, strategy.BFS: 20, strategy.BFSNODUP: 40,
		strategy.DFSCACHE: 60, strategy.DFSCLUST: 80,
	}
	for i := 0; i < 10; i++ {
		for _, k := range p.Candidates() {
			p.Observe(k, nt, cost[k])
		}
	}
	for i := 0; i < 200; i++ {
		d := p.Choose(nt)
		if d.Probe {
			t.Fatalf("choice %d probed %s: every arm has been measured", i, d.Kind)
		}
		if d.Kind != strategy.BFS {
			t.Fatalf("choice %d exploited %s (est %.1f), want dominant BFS", i, d.Kind, d.Est.IO)
		}
		// The exploit invariant: the chosen estimate is the argmin.
		for _, e := range d.Alternatives {
			if e.IO < d.Est.IO {
				t.Fatalf("choice %d picked est %.1f, %s is estimated at %.1f", i, d.Est.IO, e.Kind, e.IO)
			}
		}
		p.Observe(d.Kind, nt, cost[d.Kind])
	}
}

// TestDeterministicReplay: two planners with the same seed fed the same
// observation sequence produce the same decision sequence — there is no
// hidden randomness.
func TestDeterministicReplay(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -3} {
		mk := func() *Planner { return New(Config{Shape: testShape(), Seed: seed}) }
		a, b := mk(), mk()
		// Synthetic costs: deterministic in (kind, step), shifting over time
		// so switches occur.
		cost := func(k strategy.Kind, i int) int64 {
			base := int64(20 + 13*int64(k)%57)
			if i > 150 {
				base = 120 - base%90 // regime shift mid-run
			}
			return base + int64(i%7)
		}
		for i := 0; i < 300; i++ {
			nt := []int{4, 8, 256}[i%3]
			da, db := a.Choose(nt), b.Choose(nt)
			if da.Kind != db.Kind || da.Probe != db.Probe || da.Est != db.Est {
				t.Fatalf("seed %d step %d: decisions diverged: %+v vs %+v", seed, i, da, db)
			}
			c := cost(da.Kind, i)
			a.Observe(da.Kind, nt, c)
			b.Observe(db.Kind, nt, c)
			if i%50 == 49 {
				a.ObserveHitRate(0.6)
				b.ObserveHitRate(0.6)
			}
		}
		sa, sb := a.Stats(), b.Stats()
		if sa != sb {
			t.Fatalf("seed %d: stats diverged: %+v vs %+v", seed, sa, sb)
		}
	}
}

// TestWarmthDynamics: warmth rises quickly on good hit rates and
// resists cold readings.
func TestWarmthDynamics(t *testing.T) {
	p := New(Config{Shape: testShape()})
	if w := p.Warmth(); w != 1 {
		t.Fatalf("initial warmth = %v, want optimistic 1", w)
	}
	// A few cold readings barely move it (the cache deserves time to warm).
	for i := 0; i < 3; i++ {
		p.ObserveHitRate(0)
	}
	if w := p.Warmth(); w < 0.75 {
		t.Fatalf("warmth %.2f collapsed after 3 cold readings; the fall gain should resist transients", w)
	}
	// Sustained cold readings do get through eventually.
	for i := 0; i < 200; i++ {
		p.ObserveHitRate(0)
	}
	low := p.Warmth()
	if low > 0.1 {
		t.Fatalf("warmth %.2f still high after 200 cold readings", low)
	}
	// Rises are tracked fast.
	p.ObserveHitRate(0.9)
	p.ObserveHitRate(0.9)
	if w := p.Warmth(); w < 0.6 {
		t.Fatalf("warmth %.2f slow to recover on good hit rates", w)
	}
}

// TestPriorOrdering sanity-checks the analytic priors' relative order in
// the regimes the paper's figures pin down.
func TestPriorOrdering(t *testing.T) {
	// With a clean cluster layout at share factor 1, every subobject
	// rides the parent scan: DFSCLUST is the cheapest narrow plan.
	p := New(Config{Shape: testShape()})
	argmin := func(ests []Estimate) Estimate {
		min := ests[0]
		for _, e := range ests {
			if e.IO < min.IO {
				min = e
			}
		}
		return min
	}
	if m := argmin(p.Choose(8).Alternatives); m.Kind != strategy.DFSCLUST {
		t.Fatalf("clean-cluster narrow argmin = %s, want DFSCLUST", m.Kind)
	}
	// Scatter the layout and the warm cache takes over.
	scat := testShape()
	scat.ClusterCoverage = 0
	pScat := New(Config{Shape: scat, Seed: 2})
	if ests := pScat.Choose(8).Alternatives; argmin(ests).Kind != strategy.DFSCACHE {
		t.Fatalf("scattered narrow warm-cache argmin = %s, want DFSCACHE; ests %+v", argmin(ests).Kind, ests)
	}

	// A scattered cluster layout must cost DFSCLUST more than a clean one.
	clean := p.prior(strategy.DFSCLUST, 64)
	sc := testShape()
	sc.ClusterCoverage = 0
	ps := New(Config{Shape: sc})
	scattered := ps.prior(strategy.DFSCLUST, 64)
	if scattered <= clean {
		t.Fatalf("scattered DFSCLUST prior %.1f not above clean %.1f", scattered, clean)
	}

	// Cold cache (warmth ~0): DFSCACHE approaches DFS plus insert cost.
	pc := New(Config{Shape: testShape()})
	for i := 0; i < 500; i++ {
		pc.ObserveHitRate(0)
	}
	if cold, dfs := pc.prior(strategy.DFSCACHE, 8), pc.prior(strategy.DFS, 8); cold < dfs {
		t.Fatalf("cold-cache DFSCACHE prior %.1f below DFS %.1f: misses cost probes plus insert", cold, dfs)
	}
}
