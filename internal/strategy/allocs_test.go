package strategy

import (
	"fmt"
	"testing"

	"corep/internal/workload"
)

// TestRetrieveAllocationCeiling pins that a warm retrieve allocates its
// Result and its values and nothing else, under every strategy, whether
// it reads 5 parents or 50: everything else it uses is lent by the
// retrieve's scratch and given back when it returns — the parent list,
// the OID arena, the unit value buffer, DFSCLUST's group state, the
// temporaries' handles and page lists, their readers and the readers'
// values, the sort's buffers, run list and merge heads, the writers'
// relation tables and the merge join's inner cursor. A count that grows
// with NumTop is a per-group, per-parent or per-subobject allocation;
// one over the ceiling at both is a lent object allocated afresh again.
//
// DFS runs in the paper's mode, one probe per subobject, each record
// read under its leaf pin. DFSCACHE is served from its cache, which
// holds every unit the ranges reach. BFS, BFSNODUP and SMART's
// breadth-first pass run in wide_scan's regime on a full pool, where a
// temporary's fresh page takes an evicted frame rather than a new one:
// 100 and 1,000 OIDs over 2,000 subobjects on 118 leaves, so the merge
// join wins at both NumTops (probes cost 300 and 3,000 pages) and every
// temporary is sorted in one run.
//
// A two-level database (DFS, BFS, BFSNODUP walk an inner level; on a
// 16-page pool the database fills, so a temporary's fresh page takes an
// evicted frame) and Config.ProbeBatch (serve_2c's mode: a last level's
// list in one page-ordered sweep, BFS's probes batched) hold the same
// ceiling: DFS's values over inner levels, an inner level's OID lists,
// the batched probe's keys, the B-tree batch's visiting order and the
// inner level's step are lent too (two-level DFS 5 objects, BFS 3,
// BFSNODUP 3, and under ProbeBatch DFS 5, BFS 7, BFSNODUP 7, while they
// were allocated per retrieve or per list).
func TestRetrieveAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ceiling = 2 // the Result and its values
	narrow := buildDB(t, workload.Config{NumParents: 2000, SizeUnit: 5, UseFactor: 1, PoolPages: 4000, Seed: 3})
	wide := buildDB(t, workload.Config{NumParents: 2000, SizeUnit: 20, UseFactor: 20, Seed: 3})
	smart, err := newSmart(wide, 1)
	if err != nil {
		t.Fatal(err)
	}
	batched := buildDB(t, workload.Config{NumParents: 2000, SizeUnit: 5, UseFactor: 1, ProbeBatch: true, Seed: 3})
	twoLevel := buildTwoLevel(t, workload.TwoLevelConfig{Config: workload.Config{NumParents: 200, SizeUnit: 3, UseFactor: 2, PoolPages: 16, Seed: 17}}).DB
	twoBatched := buildTwoLevel(t, workload.TwoLevelConfig{Config: workload.Config{NumParents: 200, SizeUnit: 3, UseFactor: 2, PoolPages: 16, ProbeBatch: true, Seed: 17}}).DB
	for _, c := range []struct {
		db *workload.DB
		st Strategy
	}{
		{narrow, mustNew(t, DFS, narrow)},
		{narrow, mustNew(t, DFSCACHE, narrow)},
		{narrow, mustNew(t, DFSCLUST, narrow)},
		{wide, mustNew(t, BFS, wide)},
		{wide, mustNew(t, BFSNODUP, wide)},
		{wide, smart},
		{batched, mustNew(t, DFS, batched)},
		{batched, mustNew(t, BFS, batched)},
		{batched, mustNew(t, BFSNODUP, batched)},
		{twoLevel, mustNew(t, DFS, twoLevel)},
		{twoLevel, mustNew(t, BFS, twoLevel)},
		{twoLevel, mustNew(t, BFSNODUP, twoLevel)},
		{twoBatched, mustNew(t, DFS, twoBatched)},
		{twoBatched, mustNew(t, BFS, twoBatched)},
	} {
		allocs := func(numTop int64) float64 {
			q := Query{Lo: 100, Hi: 100 + numTop - 1, AttrIdx: workload.FieldRet1}
			if _, err := c.st.Retrieve(c.db, q); err != nil { // warm: no page fault inside the count, every pool lent, the units cached
				t.Fatal(err)
			}
			return testing.AllocsPerRun(20, func() {
				if _, err := c.st.Retrieve(c.db, q); err != nil {
					t.Fatal(err)
				}
			})
		}
		few, many := allocs(5), allocs(50)
		t.Logf("%v (two levels %v, ProbeBatch %v): %.0f objects per retrieve at NumTop 5, %.0f at 50", c.st.Kind(), multiLevel(c.db), c.db.Cfg.ProbeBatch, few, many)
		if few != many || many > ceiling {
			t.Errorf("%v (two levels %v, ProbeBatch %v) allocates %.0f objects for NumTop 5 and %.0f for NumTop 50: want one count (<= %d) for both", c.st.Kind(), multiLevel(c.db), c.db.Cfg.ProbeBatch, few, many, ceiling)
		}
	}
}

// TestCachedRetrieveAllocationCeiling pins what a DFSCACHE retrieve
// allocates: its result and nothing else. Served entirely from the
// cache, a retrieve allocates the same two objects for 5 units and for
// 50 — its Result and its values; the value buffer every hit is
// appended into is lent by the retrieve's scratch. Materializing every
// unit into a full cache costs nothing per unit: the evicted entry's
// lock list and emptied I-lock sets are recycled for the new one, and
// no member record is copied, framed afresh, written through a
// hash-file record or compacted on the heap (6.3 objects per unit
// while each entry copied its lock set and each newly locked OID got a
// set of its own, 25 before the maintenance path worked in place).
func TestCachedRetrieveAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	// Config.ProbeBatch materializes a unit's members in page order,
	// holding their records in the retrieve's scratch: the paper's mode's
	// ceilings hold for it too.
	for _, probeBatch := range []bool{false, true} {
		t.Run(fmt.Sprintf("ProbeBatch=%v", probeBatch), func(t *testing.T) { checkCachedRetrieveAllocations(t, probeBatch) })
	}
}

func checkCachedRetrieveAllocations(t *testing.T, probeBatch bool) {
	const cacheUnits, hitCeiling, perUnitCeiling = 60, 2, 1
	// UseFactor 1: every parent has a unit of its own, so a key range
	// never seen before misses on every unit.
	db := buildDB(t, workload.Config{NumParents: 2000, SizeUnit: 5, UseFactor: 1, PoolPages: 4000, CacheUnits: cacheUnits, ProbeBatch: probeBatch, Seed: 3})
	st := mustNew(t, DFSCACHE, db)
	retrieve := func(lo, n int64) {
		if _, err := st.Retrieve(db, Query{Lo: lo, Hi: lo + n - 1, AttrIdx: workload.FieldRet1}); err != nil {
			t.Fatal(err)
		}
	}
	hits := func(numTop int64) float64 {
		retrieve(100, numTop) // cache the range: cacheUnits holds the widest
		before := db.Cache.Stats()
		allocs := testing.AllocsPerRun(20, func() { retrieve(100, numTop) })
		if d := db.Cache.Stats().Sub(before); d.Misses != 0 || d.Hits != 21*numTop {
			t.Fatalf("NumTop %d was not served from the cache: %+v", numTop, d)
		}
		return allocs
	}
	few, many := hits(5), hits(50)
	t.Logf("%.0f objects per retrieve of 5 cached units, %.0f of 50", few, many)
	if few != many || many > hitCeiling {
		t.Errorf("DFSCACHE allocates %.0f objects for 5 cached units and %.0f for 50: want one count (<= %d) for both", few, many, hitCeiling)
	}

	retrieve(0, 2000) // every page in the pool, the cache at capacity
	const numTop = 20
	next := int64(200)
	before := db.Cache.Stats()
	allocs := testing.AllocsPerRun(20, func() {
		retrieve(next, numTop)
		next += numTop
	})
	if d := db.Cache.Stats().Sub(before); d.Hits != 0 || d.Evictions != 21*numTop {
		t.Fatalf("materializing retrieves hit the cache or found it not full: %+v", d)
	}
	perUnit := allocs / numTop
	t.Logf("%.1f objects per materialized unit", perUnit)
	if perUnit > perUnitCeiling {
		t.Errorf("materializing a unit into a full cache allocates %.1f objects, want <= %d", perUnit, perUnitCeiling)
	}
}
