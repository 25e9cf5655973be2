package strategy

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"corep/internal/testutil"
	"corep/internal/workload"
)

// buildDB creates a small database with every structure (cache +
// cluster) so all strategies can run against it.
func buildDB(t *testing.T, cfg workload.Config) *workload.DB {
	t.Helper()
	cfg.Clustered = true
	if cfg.CacheUnits == 0 {
		cfg.CacheUnits = 100
	}
	db, err := workload.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { testutil.AssertNoLeaks(t, db.Pool) })
	return db
}

func smallCfg() workload.Config {
	return workload.Config{NumParents: 300, SizeUnit: 5, UseFactor: 3, OverlapFactor: 1, Seed: 11}
}

func mustNew(t *testing.T, k Kind, db *workload.DB) Strategy {
	t.Helper()
	s, err := New(k, db)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func dedup(v []int64) []int64 {
	s := sortedCopy(v)
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return append([]int64(nil), out...)
}

func equalSlices(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireAgreement is the central correctness property: every strategy,
// the inside-caching ablation included, answers q with the multiset of
// values DFS returns (BFSNODUP: the same set). The strategies share no
// code on their read paths (DFS probes B-trees, BFS merge-joins
// temporaries, DFSCACHE reads the hash-file cache, DFSCLUST scans
// ClusterRel through the ISAM index), so agreement is strong evidence
// the storage engine and every plan are correct. It returns DFS's
// values, sorted.
func requireAgreement(t *testing.T, db *workload.DB, q Query, when string) []int64 {
	t.Helper()
	ref, err := mustNew(t, DFS, db).Retrieve(db, q)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedCopy(ref.Values)
	for _, k := range AllKindsWithAblations {
		if k == DFS {
			continue
		}
		got, err := mustNew(t, k, db).Retrieve(db, q)
		if err != nil {
			t.Fatalf("%v on %+v %s: %v", k, q, when, err)
		}
		exp := want
		if k == BFSNODUP {
			exp = dedup(want)
		}
		if !equalSlices(sortedCopy(got.Values), exp) {
			t.Fatalf("%v disagrees with DFS on %+v %s: %d vs %d values",
				k, q, when, len(got.Values), len(exp))
		}
	}
	return want
}

// TestAllStrategiesAgree holds every strategy to DFS on databases
// spanning the parameter space (sharing, overlap, several child
// relations), before and after a mixed update sequence applied through
// every layout.
func TestAllStrategiesAgree(t *testing.T) {
	for _, cfg := range []workload.Config{
		smallCfg(),
		// The corners: no sharing, heavy sharing, overlap, several child relations.
		{NumParents: 400, SizeUnit: 5, UseFactor: 1, Seed: 3, CacheUnits: 200},
		// 80 shared units in 40 slots: DFSCACHE evicts and re-reads shared units.
		{NumParents: 400, SizeUnit: 5, UseFactor: 5, Seed: 3, CacheUnits: 40},
		{NumParents: 400, SizeUnit: 5, UseFactor: 2, OverlapFactor: 3, Seed: 3, CacheUnits: 200},
		{NumParents: 400, SizeUnit: 5, UseFactor: 5, NumChildRel: 3, Seed: 3, CacheUnits: 200},
		{NumParents: 200, SizeUnit: 5, UseFactor: 1, OverlapFactor: 5, Seed: 23},
		{NumParents: 200, SizeUnit: 5, UseFactor: 2, NumChildRel: 3, Seed: 31},
	} {
		name := fmt.Sprintf("UF=%d_OF=%d_NCR=%d_seed=%d",
			cfg.UseFactor, max(cfg.OverlapFactor, 1), max(cfg.NumChildRel, 1), cfg.Seed)
		t.Run(name, func(t *testing.T) {
			db := buildDB(t, cfg)
			n := int64(cfg.NumParents)
			queries := []Query{
				{Lo: 0, Hi: 0, AttrIdx: workload.FieldRet1},
				{Lo: n / 4, Hi: n/4 + 9, AttrIdx: workload.FieldRet2},
				{Lo: 0, Hi: n - 1, AttrIdx: workload.FieldRet3},
				{Lo: n - 25, Hi: n - 1, AttrIdx: workload.FieldRet1},
			}
			for _, q := range queries {
				if got := requireAgreement(t, db, q, "before updates"); len(got) != q.NumTop()*db.Cfg.SizeUnit {
					t.Fatalf("DFS returned %d values for NumTop=%d", len(got), q.NumTop())
				}
			}
			cached := mustNew(t, DFSCACHE, db)
			for _, op := range db.GenSequence(10, 0.5, 10) {
				if op.Kind != workload.OpUpdate {
					continue
				}
				if err := cached.Update(db, op); err != nil {
					t.Fatal(err)
				}
				if err := db.ApplyUpdateCluster(op); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range queries {
				requireAgreement(t, db, q, "after updates")
			}
			if err := db.Cache.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCacheCoherenceAfterUpdates(t *testing.T) {
	// DFSCACHE must never serve stale values: warm the cache, update
	// subobjects, re-query, and compare against uncached DFS.
	db := buildDB(t, smallCfg())
	sc := mustNew(t, DFSCACHE, db)
	sd := mustNew(t, DFS, db)
	q := Query{Lo: 0, Hi: 49, AttrIdx: workload.FieldRet1}

	if _, err := sc.Retrieve(db, q); err != nil { // warm cache
		t.Fatal(err)
	}
	if db.Cache.Len() == 0 {
		t.Fatal("cache not maintained")
	}
	// Update some subobjects of the warmed range.
	op := workload.Op{Kind: workload.OpUpdate}
	for i := int64(0); i < 20; i++ {
		u := db.UnitOf(i)
		op.Targets = append(op.Targets, u[0])
		op.NewRet1 = append(op.NewRet1, 1_000_000+i)
	}
	if err := sc.Update(db, op); err != nil {
		t.Fatal(err)
	}
	got, err := sc.Retrieve(db, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sd.Retrieve(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSlices(sortedCopy(got.Values), sortedCopy(want.Values)) {
		t.Fatal("DFSCACHE served stale values after updates")
	}
	if err := db.Cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterCoherenceAfterUpdates(t *testing.T) {
	// Updates applied through both layouts keep DFSCLUST and DFS in
	// agreement.
	db := buildDB(t, smallCfg())
	cl := mustNew(t, DFSCLUST, db)
	d := mustNew(t, DFS, db)
	ops := db.GenSequence(0, 0, 1) // none; craft update explicitly
	_ = ops
	op := workload.Op{Kind: workload.OpUpdate}
	for i := int64(0); i < 10; i++ {
		u := db.UnitOf(i * 3)
		op.Targets = append(op.Targets, u[i%5])
		op.NewRet1 = append(op.NewRet1, 2_000_000+i)
	}
	// Apply through both layouts (they are separate copies of the data).
	if err := cl.Update(db, op); err != nil {
		t.Fatal(err)
	}
	if err := d.Update(db, op); err != nil {
		t.Fatal(err)
	}
	q := Query{Lo: 0, Hi: 59, AttrIdx: workload.FieldRet1}
	a, err := cl.Retrieve(db, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Retrieve(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSlices(sortedCopy(a.Values), sortedCopy(b.Values)) {
		t.Fatal("DFSCLUST diverged from DFS after updates")
	}
}

func TestDFSCACHEHitsOnRepeat(t *testing.T) {
	db := buildDB(t, smallCfg())
	s := mustNew(t, DFSCACHE, db)
	q := Query{Lo: 0, Hi: 9, AttrIdx: workload.FieldRet1}
	if _, err := s.Retrieve(db, q); err != nil {
		t.Fatal(err)
	}
	before := db.Cache.Stats()
	if _, err := s.Retrieve(db, q); err != nil {
		t.Fatal(err)
	}
	delta := db.Cache.Stats().Sub(before)
	if delta.Misses != 0 {
		t.Fatalf("repeat query missed cache %d times", delta.Misses)
	}
	if delta.Hits == 0 {
		t.Fatal("repeat query never hit cache")
	}
}

func TestCachedRepeatIsCheaper(t *testing.T) {
	db := buildDB(t, smallCfg())
	s := mustNew(t, DFSCACHE, db)
	q := Query{Lo: 100, Hi: 139, AttrIdx: workload.FieldRet2}
	first, err := s.Retrieve(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ResetCold(); err != nil { // cold pool, warm cache
		t.Fatal(err)
	}
	second, err := s.Retrieve(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Split.Child >= first.Split.Child {
		t.Fatalf("cached repeat not cheaper: %d vs %d child I/Os",
			second.Split.Child, first.Split.Child)
	}
}

// newSmart constructs SMART with an explicit NumTop threshold, so a
// small database reaches its breadth-first pass.
func newSmart(db *workload.DB, threshold int) (Strategy, error) {
	if _, err := New(SMART, db); err != nil {
		return nil, err
	}
	return smart{threshold: threshold}, nil
}

func TestSmartSwitchesStrategy(t *testing.T) {
	db := buildDB(t, smallCfg())
	s, err := newSmart(db, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Below threshold: cache is maintained.
	if _, err := s.Retrieve(db, Query{Lo: 0, Hi: 9, AttrIdx: workload.FieldRet1}); err != nil {
		t.Fatal(err)
	}
	if db.Cache.Len() == 0 {
		t.Fatal("SMART below threshold did not maintain cache")
	}
	size := db.Cache.Len()
	// Above threshold: cache contents stay invariant.
	if _, err := s.Retrieve(db, Query{Lo: 0, Hi: 199, AttrIdx: workload.FieldRet1}); err != nil {
		t.Fatal(err)
	}
	if db.Cache.Len() != size {
		t.Fatalf("SMART above threshold changed cache size %d → %d", size, db.Cache.Len())
	}
}

func TestStrategyRequirements(t *testing.T) {
	db, err := workload.Build(smallCfg()) // no cache, no cluster
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(DFSCACHE, db); !errors.Is(err, ErrNeedsCache) {
		t.Fatalf("DFSCACHE: %v", err)
	}
	if _, err := New(SMART, db); !errors.Is(err, ErrNeedsCache) {
		t.Fatalf("SMART: %v", err)
	}
	if _, err := New(DFSCLUST, db); !errors.Is(err, ErrNeedsCluster) {
		t.Fatalf("DFSCLUST: %v", err)
	}
	for _, k := range []Kind{DFS, BFS, BFSNODUP} {
		if _, err := New(k, db); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		DFS: "DFS", BFS: "BFS", BFSNODUP: "BFSNODUP",
		DFSCACHE: "DFSCACHE", DFSCLUST: "DFSCLUST", SMART: "SMART",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d → %q", k, k.String())
		}
	}
}

func TestCostSplitAccounting(t *testing.T) {
	db := buildDB(t, smallCfg())
	s := mustNew(t, DFS, db)
	before := db.Disk.Stats().Total()
	res, err := s.Retrieve(db, Query{Lo: 0, Hi: 49, AttrIdx: workload.FieldRet1})
	if err != nil {
		t.Fatal(err)
	}
	total := db.Disk.Stats().Total() - before
	if res.Split.Total() != total {
		t.Fatalf("split %d+%d != measured %d", res.Split.Par, res.Split.Child, total)
	}
	if res.Split.Par == 0 || res.Split.Child == 0 {
		t.Fatalf("degenerate split %+v", res.Split)
	}
}

func TestNoPinLeaks(t *testing.T) {
	db := buildDB(t, smallCfg())
	for _, k := range AllKinds {
		s := mustNew(t, k, db)
		if _, err := s.Retrieve(db, Query{Lo: 5, Hi: 44, AttrIdx: workload.FieldRet3}); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if n := db.Pool.PinnedCount(); n != 0 {
			t.Fatalf("%v leaked %d pins", k, n)
		}
	}
}

func TestUpdateSequenceKeepsAgreement(t *testing.T) {
	// Run a mixed sequence through DFSCACHE (applying updates through
	// both layouts so DFSCLUST stays comparable) and check agreement at
	// the end.
	db := buildDB(t, smallCfg())
	sc := mustNew(t, DFSCACHE, db)
	ops := db.GenSequence(30, 0.4, 10)
	for _, op := range ops {
		switch op.Kind {
		case workload.OpRetrieve:
			if _, err := sc.Retrieve(db, Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx}); err != nil {
				t.Fatal(err)
			}
		case workload.OpUpdate:
			if err := sc.Update(db, op); err != nil {
				t.Fatal(err)
			}
			if err := db.ApplyUpdateCluster(op); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireAgreement(t, db, Query{Lo: 0, Hi: 299, AttrIdx: workload.FieldRet1}, "after mixed sequence")
	if err := db.Cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
