package workload

import (
	"testing"

	"corep/internal/object"
)

func TestValueBasedBuild(t *testing.T) {
	db, err := BuildValueBased(Config{NumParents: 300, SizeUnit: 5, UseFactor: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// 100 units over 500 subobjects... NumUnits = 300/3 = 100, nChild = 500.
	if db.childCount != 500 {
		t.Fatalf("children = %d", db.childCount)
	}
	n, err := db.Parent.Tree.Len()
	if err != nil || n != 300 {
		t.Fatalf("|ParentRelV| = %d, %v", n, err)
	}
	// Homes invariant: every parent embedding a subobject appears once.
	total := 0
	for oid, homes := range db.Homes {
		seen := map[int64]bool{}
		for _, h := range homes {
			if seen[h] {
				t.Fatalf("duplicate home for %v", oid)
			}
			seen[h] = true
		}
		total += len(homes)
	}
	// Each parent embeds SizeUnit subobjects: total home slots = 300×5.
	if total != 300*5 {
		t.Fatalf("home slots = %d, want 1500", total)
	}
}

func TestValueBasedParentWidth(t *testing.T) {
	db, err := BuildValueBased(Config{NumParents: 100, SizeUnit: 5, UseFactor: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := db.Parent.Tree.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	// Base body ≈ 200 bytes minus the OID list, plus 5 embedded ~100 B
	// children ≈ 660–720 bytes.
	if len(rec) < 550 || len(rec) > 850 {
		t.Fatalf("value parent record = %d bytes", len(rec))
	}
}

func TestValueBasedSequence(t *testing.T) {
	db, err := BuildValueBased(Config{NumParents: 200, SizeUnit: 3, UseFactor: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ops := db.GenSequence(20, 0.5, 10)
	r, u := 0, 0
	for _, op := range ops {
		switch op.Kind {
		case OpRetrieve:
			r++
			if op.Hi-op.Lo+1 != 10 {
				t.Fatalf("numtop = %d", op.Hi-op.Lo+1)
			}
		case OpUpdate:
			u++
			for _, oid := range op.Targets {
				if oid.Rel() != db.ChildRelID() {
					t.Fatalf("update target %v not a value subobject", oid)
				}
				if oid.Key() >= int64(db.childCount) {
					t.Fatalf("update target %v out of range", oid)
				}
			}
		}
	}
	if r != 20 || u != 20 {
		t.Fatalf("r=%d u=%d", r, u)
	}
	_ = object.OID(0)
}
