package workload

import (
	"testing"

	"corep/internal/object"
	"corep/internal/tuple"
)

func TestBuildTwoLevelCardinalities(t *testing.T) {
	db, err := BuildTwoLevel(TwoLevelConfig{
		Config: Config{NumParents: 400, SizeUnit: 5, UseFactor: 2, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// |MidRel| = 400*5/2 = 1000; |LeafRel| = 1000*5/2 = 2500.
	if n := db.ChildCount(db.Children[0].ID); n != 1000 {
		t.Fatalf("|MidRel| = %d", n)
	}
	if n := db.ChildCount(db.Children[1].ID); n != 2500 {
		t.Fatalf("|LeafRel| = %d", n)
	}
	if len(db.MidUnits) != 500 {
		t.Fatalf("mid units = %d", len(db.MidUnits))
	}
}

func TestTwoLevelOIDResolution(t *testing.T) {
	db, err := BuildTwoLevel(TwoLevelConfig{
		Config: Config{NumParents: 200, SizeUnit: 3, UseFactor: 2, Seed: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Walk parent 7 down both levels; every OID must resolve and every
	// mid tuple must carry exactly SizeUnit leaf OIDs.
	unit := db.UnitOf(7)
	if len(unit) != 3 {
		t.Fatalf("parent unit = %d", len(unit))
	}
	childrenIdx := db.ParentSchema.MustIndex("children")
	for _, mo := range unit {
		if mo.Rel() != db.Children[0].ID {
			t.Fatalf("parent references %v, not MidRel", mo)
		}
		rec, err := db.Children[0].Tree.Get(mo.Key())
		if err != nil {
			t.Fatal(err)
		}
		v, err := tuple.DecodeField(db.ParentSchema, rec, childrenIdx)
		if err != nil {
			t.Fatal(err)
		}
		leaves, err := object.DecodeOIDs(v.Raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(leaves) != 3 {
			t.Fatalf("mid %v has %d leaves", mo, len(leaves))
		}
		for _, lo := range leaves {
			if lo.Rel() != db.Children[1].ID {
				t.Fatalf("mid references %v, not LeafRel", lo)
			}
			if _, err := db.Children[1].Tree.Get(lo.Key()); err != nil {
				t.Fatalf("leaf %v: %v", lo, err)
			}
		}
	}
}

func TestTwoLevelMidUnitsExact(t *testing.T) {
	db, err := BuildTwoLevel(TwoLevelConfig{
		Config:        Config{NumParents: 300, SizeUnit: 5, UseFactor: 3, Seed: 2},
		LeafUseFactor: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, u := range db.MidUnitOf {
		counts[u]++
	}
	for u, c := range counts {
		if c < 5 || c > 6 { // exact 5 plus random padding remainder
			t.Fatalf("leaf unit %d used %d times", u, c)
		}
	}
	for i, u := range db.MidUnits {
		seen := map[object.OID]bool{}
		for _, o := range u {
			if seen[o] {
				t.Fatalf("mid unit %d has duplicates", i)
			}
			seen[o] = true
		}
	}
}

func TestTwoLevelRejectsMultiChildRel(t *testing.T) {
	_, err := BuildTwoLevel(TwoLevelConfig{
		Config: Config{NumParents: 100, SizeUnit: 2, UseFactor: 2, NumChildRel: 3, Seed: 1},
	})
	if err == nil {
		t.Fatal("multi-child-relation two-level build accepted")
	}
}

func TestTwoLevelStartsCold(t *testing.T) {
	db, err := BuildTwoLevel(TwoLevelConfig{
		Config: Config{NumParents: 100, SizeUnit: 2, UseFactor: 2, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := db.Disk.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Fatalf("not cold: %+v", s)
	}
}
