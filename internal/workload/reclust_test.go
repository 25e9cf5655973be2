package workload

import (
	"testing"

	"corep/internal/object"
	"corep/internal/tuple"
)

func buildReclustDB(t *testing.T) *DB {
	t.Helper()
	db, err := Build(Config{NumParents: 60, Seed: 5, Clustered: true, ScatterClusters: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.EnableReclustering(0, 0); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestEnableReclusteringErrors(t *testing.T) {
	flat, err := Build(Config{NumParents: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if err := flat.EnableReclustering(0, 0); err == nil {
		t.Error("reclustering enabled on a non-clustered layout")
	}
	if _, err := flat.ReclustStep(1); err == nil {
		t.Error("ReclustStep without EnableReclustering succeeded")
	}

	db := buildReclustDB(t)
	if err := db.EnableReclustering(0, 0); err == nil {
		t.Error("double EnableReclustering succeeded")
	}
}

// TestReclustStepMigratesWholeUnits: a step moves the hottest parents'
// whole units — parent row plus every member — and each placed copy
// reads back, re-keyed to its home parent, with the original values.
func TestReclustStepMigratesWholeUnits(t *testing.T) {
	db := buildReclustDB(t)
	rs := db.Reclust
	rs.Heat.Touch(3, 5)
	rs.Heat.Touch(7, 3)

	moved, err := db.ReclustStep(2)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + len(db.UnitOf(3)) + len(db.UnitOf(7)) // parent rows + members
	if moved != want {
		t.Fatalf("moved %d objects, want %d", moved, want)
	}

	oidIdx := db.ClusterSchema.MustIndex("OID")
	for _, p := range []int64{3, 7} {
		unit := append(object.Unit{object.NewOID(db.Parent.ID, p)}, db.UnitOf(p)...)
		for _, oid := range unit {
			e, ok := rs.Place.Latest(oid)
			if !ok {
				t.Fatalf("unit %d member %v has no placement", p, oid)
			}
			if e.Owner != p {
				t.Errorf("placement owner %d, want %d", e.Owner, p)
			}
			rec, err := db.ReadPlaced(e.RID)
			if err != nil {
				t.Fatalf("placed copy of %v unreadable: %v", oid, err)
			}
			row, err := tuple.Decode(db.ClusterSchema, rec)
			if err != nil {
				t.Fatal(err)
			}
			if row[0].Int != p {
				t.Errorf("copy of %v re-keyed to cluster %d, want %d", oid, row[0].Int, p)
			}
			if object.OID(row[oidIdx].Int) != oid {
				t.Errorf("copy carries OID %v, want %v", object.OID(row[oidIdx].Int), oid)
			}
		}
	}

	st := *db.ReclustStats()
	if st.Migrated != int64(moved) || st.Batches != 1 || st.Placements != moved || st.PagesDirty == 0 {
		t.Errorf("stats after one step: %+v", st)
	}

	// The same parents are not re-migrated.
	again, err := db.ReclustStep(2)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Errorf("second step re-moved %d objects", again)
	}
}

// TestReclustWriteThrough: an in-place update of a migrated member must
// land in the extent copy too — both physical locations answer with
// the new value.
func TestReclustWriteThrough(t *testing.T) {
	db := buildReclustDB(t)
	rs := db.Reclust
	rs.Heat.Touch(9, 1)
	if _, err := db.ReclustStep(1); err != nil {
		t.Fatal(err)
	}
	target := db.UnitOf(9)[0]
	const newVal = 987654
	if err := db.ApplyUpdateCluster(Op{Kind: OpUpdate, Targets: []object.OID{target}, NewRet1: []int64{newVal}}); err != nil {
		t.Fatal(err)
	}
	e, ok := rs.Place.Latest(target)
	if !ok {
		t.Fatal("updated member lost its placement")
	}
	rec, err := db.ReadPlaced(e.RID)
	if err != nil {
		t.Fatal(err)
	}
	row, err := tuple.Decode(db.ClusterSchema, rec)
	if err != nil {
		t.Fatal(err)
	}
	if row[2].Int != newVal {
		t.Fatalf("extent copy carries ret1=%d, want %d", row[2].Int, newVal)
	}
}

// TestReclustCrashRestore: after a clean-sync crash, recovery restores
// exactly the committed placements and every one of them still reads
// back through the pool.
func TestReclustCrashRestore(t *testing.T) {
	db := buildReclustDB(t)
	if err := db.EnableWAL(0); err != nil {
		t.Fatal(err)
	}
	rs := db.Reclust
	rs.Heat.Touch(2, 4)
	rs.Heat.Touch(11, 2)
	if _, err := db.ReclustStep(2); err != nil {
		t.Fatal(err)
	}
	committed := rs.Place.Snapshot()
	if len(committed) == 0 {
		t.Fatal("no placements committed")
	}

	res, err := db.CrashAndRecover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Commits) == 0 {
		t.Fatal("synced migration commit lost in crash")
	}
	restored := rs.Place.Snapshot()
	if len(restored) != len(committed) {
		t.Fatalf("restored %d placements, committed %d", len(restored), len(committed))
	}
	for oid, want := range committed {
		got, ok := restored[oid]
		if !ok || got.RID != want.RID {
			t.Fatalf("placement of %v: restored %+v, committed %+v", oid, got, want)
		}
		rec, err := db.ReadPlaced(got.RID)
		if err != nil {
			t.Fatalf("restored placement of %v unreadable: %v", oid, err)
		}
		if _, err := tuple.Decode(db.ClusterSchema, rec); err != nil {
			t.Fatalf("restored copy of %v corrupt: %v", oid, err)
		}
	}
}
