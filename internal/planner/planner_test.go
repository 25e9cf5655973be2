package planner

import (
	"math"
	"testing"

	"corep/internal/strategy"
)

// testShape is a small database shape on which every candidate kind is
// executable (cache and cluster present, share factor 1).
// warmthOf returns p's current cache-warmth estimate (the DFSCACHE
// prior's hit-rate parameter).
func warmthOf(p *Planner) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.warmth
}

func testShape() Shape {
	return Shape{
		NumParents:   1500,
		ParentHeight: 2, ParentLeaves: 24,
		ChildHeight: 3, ChildLeaves: 120,
		SizeUnit: 5, ShareFactor: 1,
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

// TestChooseIsArgminOfPriors is the planner's contract: at a fixed
// warmth a choice depends on (Shape, numTop) alone — Observe calls in
// any order change nothing — and the chosen estimate is the lowest
// prior, ties going to the lower Kind.
func TestChooseIsArgminOfPriors(t *testing.T) {
	shapes := []Shape{testShape()}
	for _, mod := range []func(*Shape){
		func(s *Shape) { s.ClusterCoverage = 0 },
		func(s *Shape) { s.ShareFactor, s.ClusterCoverage = 3, 0.5 },
		func(s *Shape) { s.HasCache = false },
		func(s *Shape) { s.HasCluster, s.CacheUnits = false, 40 },
	} {
		s := testShape()
		mod(&s)
		shapes = append(shapes, s)
	}
	widths := []int{0, 1, 2, 8, 64, 512, 1500, 5000, math.MaxInt}
	for si, shape := range shapes {
		for _, warm := range []float64{1, 0.6, 0.1} {
			mk := func() *Planner {
				p := New(Config{Shape: shape})
				for i := 0; i < 50; i++ {
					p.ObserveHitRate(warm)
				}
				return p
			}
			fresh, fed := mk(), mk()
			// Feed one planner observations in two different orders;
			// neither may move a choice.
			for i := 0; i < 200; i++ {
				for _, k := range fed.Candidates() {
					fed.Observe(k, widths[(i+int(k))%len(widths)], int64(1+(i*37+int(k)*11)%900))
				}
			}
			for i := 199; i >= 0; i-- {
				fed.Observe(fed.Candidates()[i%len(fed.Candidates())], widths[i%len(widths)], int64(i))
			}
			if warmthOf(fresh) != warmthOf(fed) {
				t.Fatalf("shape %d: Observe moved warmth %v -> %v", si, warmthOf(fresh), warmthOf(fed))
			}
			for _, nt := range widths {
				d, e := fresh.Choose(nt), fed.Choose(nt)
				if d != e {
					t.Fatalf("shape %d warmth %.1f NumTop %d: observations changed the choice: %+v vs %+v", si, warm, nt, d, e)
				}
				for _, k := range fresh.Candidates() {
					pr := fresh.prior(k, nt)
					if pr < d.IO || pr == d.IO && k < d.Kind {
						t.Fatalf("shape %d warmth %.1f NumTop %d: chose %s at %.1f, %s is priced %.1f",
							si, warm, nt, d.Kind, d.IO, k, pr)
					}
					if k == d.Kind && pr != d.IO {
						t.Fatalf("shape %d NumTop %d: decision IO %.1f is not %s's prior %.1f", si, nt, d.IO, k, pr)
					}
				}
			}
		}
	}
}

// TestPriorOpenBoundClampsToStoredParents: an open-ended range
// (NumTop math.MaxInt) selects every stored parent and must be priced
// as such — unclamped, the subobject count overflowed and BFS/BFSNODUP
// came out negative, or DFS was chosen for a full scan.
func TestPriorOpenBoundClampsToStoredParents(t *testing.T) {
	for _, su := range []int{2, 5} {
		s := testShape()
		s.SizeUnit = su
		p := New(Config{Shape: s})
		for _, k := range p.Candidates() {
			for _, nt := range []int{0, 1, s.NumParents, s.NumParents + 1, math.MaxInt / 2, math.MaxInt} {
				if io := p.prior(k, nt); io < 0 {
					t.Fatalf("SizeUnit %d: %s priced at %.3g pages for NumTop %d", su, k, io, nt)
				}
			}
		}
		if open, all := p.Choose(math.MaxInt), p.Choose(s.NumParents); open != all {
			t.Fatalf("SizeUnit %d: open bound chose %+v, all %d parents chose %+v", su, open, s.NumParents, all)
		}
	}
}

// TestWarmthDynamics: warmth rises quickly on good hit rates and
// resists cold readings.
func TestWarmthDynamics(t *testing.T) {
	p := New(Config{Shape: testShape()})
	if w := warmthOf(p); w != 1 {
		t.Fatalf("initial warmth = %v, want optimistic 1", w)
	}
	// A few cold readings barely move it (the cache deserves time to warm).
	for i := 0; i < 3; i++ {
		p.ObserveHitRate(0)
	}
	if w := warmthOf(p); w < 0.75 {
		t.Fatalf("warmth %.2f collapsed after 3 cold readings; the fall gain should resist transients", w)
	}
	// Sustained cold readings do get through eventually.
	for i := 0; i < 200; i++ {
		p.ObserveHitRate(0)
	}
	low := warmthOf(p)
	if low > 0.1 {
		t.Fatalf("warmth %.2f still high after 200 cold readings", low)
	}
	// Rises are tracked fast.
	p.ObserveHitRate(0.9)
	p.ObserveHitRate(0.9)
	if w := warmthOf(p); w < 0.6 {
		t.Fatalf("warmth %.2f slow to recover on good hit rates", w)
	}
}

// TestPriorOrdering sanity-checks the analytic priors' relative order in
// the regimes the paper's figures pin down.
func TestPriorOrdering(t *testing.T) {
	// With a clean cluster layout at share factor 1, every subobject
	// rides the parent scan: DFSCLUST is the cheapest narrow plan.
	p := New(Config{Shape: testShape()})
	if d := p.Choose(8); d.Kind != strategy.DFSCLUST {
		t.Fatalf("clean-cluster narrow argmin = %s, want DFSCLUST", d.Kind)
	}
	// Scatter the layout and the warm cache takes over.
	scat := testShape()
	scat.ClusterCoverage = 0
	if d := New(Config{Shape: scat}).Choose(8); d.Kind != strategy.DFSCACHE {
		t.Fatalf("scattered narrow warm-cache argmin = %+v, want DFSCACHE", d)
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
