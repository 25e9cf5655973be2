package strategy

import (
	"testing"

	"corep/internal/workload"
)

// TestRetrieveAllocationCeiling pins what the per-call scratch bought: a
// warm DFSCLUST retrieve allocates the same few objects whether it reads
// 5 cluster# groups or 50 (its result, its scan state and scratch, the
// cursor — no map, no copied children value, no OID list per group), and
// a scanParents-based retrieve one parent slice and one OID arena however
// many parents qualify. A per-group or per-parent allocation coming back
// shows here as a count that grows with NumTop.
func TestRetrieveAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	// ProbeBatch: DFS's fetch phase is then one ProbeOIDs sweep; the
	// paper's one-probe-at-a-time mode copies a record per subobject,
	// which is the fetch's cost, not the scan's.
	db := buildDB(t, workload.Config{NumParents: 2000, SizeUnit: 5, UseFactor: 1, PoolPages: 4000, ProbeBatch: true, Seed: 3})
	allocs := func(k Kind, numTop int64) float64 {
		st := mustNew(t, k, db)
		q := Query{Lo: 100, Hi: 100 + numTop - 1, AttrIdx: workload.FieldRet1}
		if _, err := st.Retrieve(db, q); err != nil { // warm: no page fault inside the count
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := st.Retrieve(db, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, k := range []Kind{DFSCLUST, DFS} {
		few, many := allocs(k, 5), allocs(k, 50)
		if few != many || many > 16 {
			t.Errorf("%v allocates %.0f objects for NumTop 5 and %.0f for NumTop 50: want one small count (<= 16) for both", k, few, many)
		}
	}
}

// TestCachedRetrieveAllocationCeiling pins the one value buffer per
// DFSCACHE retrieve. Served entirely from the cache, a retrieve allocates
// the same few objects for 5 units and for 50: its result, its scan
// state and the buffer every hit is appended into — no value copy per
// unit. Materializing every unit into a full cache costs what the cache
// keeps per unit — its copy of the lock set and a slot in each member's
// I-lock set — and nothing per member record: no record copy, no framing
// copy, no hash-file record, no page compaction on the heap (25 objects
// per unit before the maintenance path worked in place).
func TestCachedRetrieveAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const cacheUnits, perUnitCeiling = 60, 10
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
	if few != many || many > 8 {
		t.Errorf("DFSCACHE allocates %.0f objects for 5 cached units and %.0f for 50: want one small count (<= 8) for both", few, many)
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
