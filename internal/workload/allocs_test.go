package workload

import "testing"

// TestUpdateAllocatesNothing: an update patches ret1 in the pinned
// record, on both layouts, so a batch of ten targets allocates nothing —
// no record copy, no decoded tuple, no re-encoded record (eight objects
// a target when updates went through Get, decode-set-encode and Update).
func TestUpdateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	db, err := Build(Config{NumParents: 2000, UseFactor: 1, Clustered: true, PoolPages: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var op Op
	for _, o := range db.GenSequence(20, 0.5, 10) {
		if o.Kind == OpUpdate {
			op = o
			break
		}
	}
	if len(op.Targets) != DefaultUpdateBatch {
		t.Fatalf("update of %d targets, want %d", len(op.Targets), DefaultUpdateBatch)
	}
	for name, apply := range map[string]func(Op) error{"ApplyUpdateBase": db.ApplyUpdateBase, "ApplyUpdateCluster": db.ApplyUpdateCluster} {
		allocs := testing.AllocsPerRun(50, func() {
			if err := apply(op); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f objects per target, want 0", name, allocs/float64(len(op.Targets)))
		}
	}
}

// TestBuildAllocationCeiling: building clustered_warm's database (10,000
// parents, 50,000 subobjects, 120,000 rows over ParentRel, ChildRel and
// ClusterRel) allocates nothing per row. What remains is about one
// object per unit generated and a few per page — a fresh frame and disk
// page, a split's scratch — about 7 per parent in all; one allocation per
// ClusterRel row would add 6 (a Get, Decode and Encode per row cost 101
// per parent).
func TestBuildAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const perParentCeiling = 7.5
	cfg := Config{UseFactor: 1, Clustered: true, PoolPages: 8000, Seed: 1}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Build(cfg); err != nil {
			t.Fatal(err)
		}
	})
	perParent := allocs / DefaultNumParents
	t.Logf("%.0f objects, %.2f per parent", allocs, perParent)
	if perParent > perParentCeiling {
		t.Errorf("building clustered_warm's database allocates %.2f objects per parent, want <= %.1f", perParent, perParentCeiling)
	}
}
