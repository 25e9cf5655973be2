package strategy

import (
	"testing"

	"corep/internal/workload"
)

// TestRetrieveAllocationCeiling pins what the per-call scratch bought: a
// warm DFSCLUST retrieve allocates the same few objects whether it reads
// 5 cluster# groups or 50 (its result, its scan state and scratch, the
// cursor — no map, no copied children value, no OID list per group), and
// a scanParents-based retrieve only its result: the parent list and the
// OID arena are lent by the strategy's scratch pool. DFS runs in the
// paper's mode, one probe per subobject, each record read under its leaf
// pin: a record copy per subobject coming back shows here too. A
// per-group, per-parent or per-subobject allocation shows as a count
// that grows with NumTop.
//
// BFS, BFSNODUP and SMART's breadth-first pass run in wide_scan's regime
// — every OID sorted in one run and merge-joined with the child leaves,
// at NumTop 5 and 50 alike — on a full pool, where a temporary's fresh
// page takes an evicted frame rather than a new one. Each retrieve
// allocates its result, its temporaries' handles, the sort's run list,
// the outer reader and the inner cursor, and nothing that grows with
// NumTop: the parent list, the OID arena, the reader's values, the
// sort's buffers, the temporaries' page lists and the writers' relation
// tables are lent.
func TestRetrieveAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	allocs := func(db *workload.DB, st Strategy, numTop int64) float64 {
		q := Query{Lo: 100, Hi: 100 + numTop - 1, AttrIdx: workload.FieldRet1}
		if _, err := st.Retrieve(db, q); err != nil { // warm: no page fault inside the count, every pool lent
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := st.Retrieve(db, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	db := buildDB(t, workload.Config{NumParents: 2000, SizeUnit: 5, UseFactor: 1, PoolPages: 4000, Seed: 3})
	// DFS allocates its result and its values, DFSCLUST those and its
	// per-call scan state.
	for _, c := range []struct {
		k       Kind
		ceiling float64
	}{{DFSCLUST, 4}, {DFS, 2}} {
		st := mustNew(t, c.k, db)
		few, many := allocs(db, st, 5), allocs(db, st, 50)
		if few != many || many > c.ceiling {
			t.Errorf("%v allocates %.0f objects for NumTop 5 and %.0f for NumTop 50: want one count (<= %.0f) for both", c.k, few, many, c.ceiling)
		}
	}

	// 100 and 1,000 OIDs over 2,000 subobjects on 118 leaves: the merge
	// join wins at both NumTops (probes cost 300 and 3,000 pages), and
	// 1,000 OIDs are one sort run.
	wide := buildDB(t, workload.Config{NumParents: 2000, SizeUnit: 20, UseFactor: 20, Seed: 3})
	smart, err := newSmart(wide, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The ceilings are the measured counts: one lent buffer allocated
	// afresh again shows as one object over. BFSNODUP adds the distinct
	// copy's two handles and its Distinct reader.
	for _, c := range []struct {
		st      Strategy
		ceiling float64
	}{{mustNew(t, BFS, wide), 8}, {mustNew(t, BFSNODUP, wide), 11}, {smart, 8}} {
		few, many := allocs(wide, c.st, 5), allocs(wide, c.st, 50)
		if few != many || many > c.ceiling {
			t.Errorf("%v allocates %.0f objects for NumTop 5 and %.0f for NumTop 50: want one count (<= %.0f) for both", c.st.Kind(), few, many, c.ceiling)
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
	const cacheUnits, hitCeiling, perUnitCeiling = 60, 2, 1
	// UseFactor 1: every parent has a unit of its own, so a key range
	// never seen before misses on every unit.
	db := buildDB(t, workload.Config{NumParents: 2000, SizeUnit: 5, UseFactor: 1, PoolPages: 4000, CacheUnits: cacheUnits, Seed: 3})
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
