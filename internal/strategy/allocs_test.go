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
