package workload

import (
	"errors"
	"strings"
	"testing"

	"corep/internal/object"
	"corep/internal/tuple"
)

// smallCfg keeps unit tests fast; experiments use paper scale.
func smallCfg() Config {
	return Config{NumParents: 400, SizeUnit: 5, UseFactor: 2, OverlapFactor: 1, Seed: 42}
}

func TestBuildCardinalities(t *testing.T) {
	db, err := Build(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// eqn (1): |ChildRel| = NumParents*SizeUnit/ShareFactor = 400*5/2 = 1000.
	n, err := db.Children[0].Tree.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("|ChildRel| = %d, want 1000", n)
	}
	// NumUnits = NumParents/UseFactor = 200.
	if len(db.Units) != 200 {
		t.Fatalf("NumUnits = %d, want 200", len(db.Units))
	}
	pn, err := db.Parent.Tree.Len()
	if err != nil {
		t.Fatal(err)
	}
	if pn != 400 {
		t.Fatalf("|ParentRel| = %d", pn)
	}
}

func TestUnitsExactSizeAndDistinct(t *testing.T) {
	db, err := Build(Config{NumParents: 300, SizeUnit: 5, UseFactor: 3, OverlapFactor: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range db.Units {
		if len(u) != 5 {
			t.Fatalf("unit %d size %d", i, len(u))
		}
		seen := map[object.OID]bool{}
		for _, o := range u {
			if seen[o] {
				t.Fatalf("unit %d has duplicate member %v", i, o)
			}
			seen[o] = true
		}
	}
}

func TestUseFactorExact(t *testing.T) {
	db, err := Build(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for u, users := range db.UnitUsers {
		if len(users) != 2 {
			t.Fatalf("unit %d used by %d parents, want UseFactor=2", u, len(users))
		}
	}
}

func TestOverlapFactorRealized(t *testing.T) {
	db, err := Build(Config{NumParents: 400, SizeUnit: 5, UseFactor: 1, OverlapFactor: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Count unit memberships per subobject: mean must be ≈ OverlapFactor.
	counts := map[object.OID]int{}
	for _, u := range db.Units {
		for _, o := range u {
			counts[o]++
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	mean := float64(total) / float64(len(counts))
	if mean < 3.5 || mean > 4.5 {
		t.Fatalf("mean overlap = %f, want ≈4", mean)
	}
}

func TestParentTupleWidth(t *testing.T) {
	db, err := Build(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := db.Parent.Tree.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	// "A typical length of a ParentRel tuple is 200 bytes."
	if len(rec) < 180 || len(rec) > 220 {
		t.Fatalf("parent record = %d bytes, want ≈200", len(rec))
	}
	crec, err := db.Children[0].Tree.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(crec) < 90 || len(crec) > 110 {
		t.Fatalf("child record = %d bytes, want ≈100", len(crec))
	}
}

func TestChildrenFieldDecodes(t *testing.T) {
	db, err := Build(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	idx := db.ParentSchema.MustIndex("children")
	rec, err := db.Parent.Tree.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	v, err := tuple.DecodeField(db.ParentSchema, rec, idx)
	if err != nil {
		t.Fatal(err)
	}
	oids, err := object.DecodeOIDs(v.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 5 {
		t.Fatalf("children = %d", len(oids))
	}
	// They must equal the bookkeeping unit.
	unit := db.UnitOf(7)
	for i := range unit {
		if unit[i] != oids[i] {
			t.Fatalf("stored unit differs from bookkeeping at %d", i)
		}
	}
	// And every OID must resolve.
	for _, o := range oids {
		rel, err := db.ChildByRelID(o.Rel())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rel.Tree.Get(o.Key()); err != nil {
			t.Fatalf("child %v missing: %v", o, err)
		}
	}
}

func TestMultipleChildRelations(t *testing.T) {
	db, err := Build(Config{NumParents: 400, SizeUnit: 5, UseFactor: 2, NumChildRel: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Children) != 4 {
		t.Fatalf("children relations = %d", len(db.Children))
	}
	// Every unit's members come from a single relation.
	relsSeen := map[uint16]bool{}
	for i, u := range db.Units {
		rel := u[0].Rel()
		relsSeen[rel] = true
		for _, o := range u {
			if o.Rel() != rel {
				t.Fatalf("unit %d spans relations", i)
			}
		}
	}
	if len(relsSeen) != 4 {
		t.Fatalf("units cover %d relations, want 4", len(relsSeen))
	}
}

func TestClusteredBuild(t *testing.T) {
	cfg := smallCfg()
	cfg.Clustered = true
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.ClusterRel == nil || db.ClusterRel.Index == nil {
		t.Fatal("ClusterRel or its ISAM index missing")
	}
	// ClusterRel holds every parent and every child exactly once.
	n, err := db.ClusterRel.Tree.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 400+1000 {
		t.Fatalf("|ClusterRel| = %d, want 1400", n)
	}
	// Every subobject is owned and reachable via the index.
	if len(db.Assignment.Owner) != 1000 {
		t.Fatalf("owners = %d", len(db.Assignment.Owner))
	}
	for _, u := range db.Units[:10] {
		for _, o := range u {
			rid, err := db.ClusterRel.Index.Probe(int64(o))
			if err != nil {
				t.Fatalf("probe %v: %v", o, err)
			}
			var got int64
			err = db.ClusterRel.Tree.ViewAt(rid, func(payload []byte) (err error) {
				got, err = tuple.Int(db.ClusterSchema, payload, db.ClusterSchema.MustIndex("OID"))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if object.OID(got) != o {
				t.Fatalf("index probe of %v returned %v", o, object.OID(got))
			}
		}
	}
}

func TestGenSequenceShape(t *testing.T) {
	db, err := Build(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	ops := db.GenSequence(100, 0.5, 10)
	retrieves, updates := 0, 0
	for _, op := range ops {
		switch op.Kind {
		case OpRetrieve:
			retrieves++
			if op.Hi-op.Lo+1 != 10 {
				t.Fatalf("numtop = %d", op.Hi-op.Lo+1)
			}
			if op.Lo < 0 || op.Hi >= int64(db.Cfg.NumParents) {
				t.Fatalf("range [%d,%d] out of bounds", op.Lo, op.Hi)
			}
			if op.AttrIdx < FieldRet1 || op.AttrIdx > FieldRet3 {
				t.Fatalf("attr = %d", op.AttrIdx)
			}
		case OpUpdate:
			updates++
			if len(op.Targets) != DefaultUpdateBatch {
				t.Fatalf("update batch = %d", len(op.Targets))
			}
		}
	}
	if retrieves != 100 || updates != 100 { // p=0.5 → equal counts
		t.Fatalf("retrieves=%d updates=%d", retrieves, updates)
	}
}

func TestGenSequenceUpdateFractionCapped(t *testing.T) {
	db, err := Build(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	ops := db.GenSequence(10, 1.0, 5)
	updates := 0
	for _, op := range ops {
		if op.Kind == OpUpdate {
			updates++
		}
	}
	// p capped at 0.95 → 19 updates per 10 retrieves.
	if updates != 190 {
		t.Fatalf("updates = %d, want 190", updates)
	}
}

func TestGenSequenceNoUpdates(t *testing.T) {
	db, err := Build(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range db.GenSequence(20, 0, 1) {
		if op.Kind != OpRetrieve {
			t.Fatal("update generated at p=0")
		}
	}
}

func TestApplyUpdateBase(t *testing.T) {
	db, err := Build(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	oid := db.Units[0][0]
	op := Op{Kind: OpUpdate, Targets: []object.OID{oid}, NewRet1: []int64{123456}}
	if err := db.ApplyUpdateBase(op); err != nil {
		t.Fatal(err)
	}
	rel, _ := db.ChildByRelID(oid.Rel())
	rec, err := rel.Tree.Get(oid.Key())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tuple.DecodeField(db.ChildSchema, rec, FieldRet1)
	if v.Int != 123456 {
		t.Fatalf("ret1 = %d", v.Int)
	}
}

func TestApplyUpdateCluster(t *testing.T) {
	cfg := smallCfg()
	cfg.Clustered = true
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oid := db.Units[3][2]
	op := Op{Kind: OpUpdate, Targets: []object.OID{oid}, NewRet1: []int64{777}}
	if err := db.ApplyUpdateCluster(op); err != nil {
		t.Fatal(err)
	}
	rid, err := db.ClusterRel.Index.Probe(int64(oid))
	if err != nil {
		t.Fatal(err)
	}
	var v int64
	err = db.ClusterRel.Tree.ViewAt(rid, func(payload []byte) (err error) {
		v, err = tuple.Int(db.ClusterSchema, payload, 2)
		return err
	})
	if err != nil || v != 777 {
		t.Fatalf("ret1 = %d, %v", v, err)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, err := Build(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Units {
		for j := range a.Units[i] {
			if a.Units[i][j].Key() != b.Units[i][j].Key() {
				t.Fatalf("unit %d member %d differs across builds", i, j)
			}
		}
	}
	ra, _ := a.Parent.Tree.Get(5)
	rb, _ := b.Parent.Tree.Get(5)
	if string(ra) != string(rb) {
		t.Fatal("parent record differs across same-seed builds")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{NumParents: -1},
		{NumParents: 10, SizeUnit: 5, UseFactor: 100, OverlapFactor: 1, NumChildRel: 1},
		{NumParents: 100, SizeUnit: 5, UseFactor: 50, OverlapFactor: 1, NumChildRel: 10},
	}
	for i, c := range bad {
		if err := c.WithDefaults().Validate(); err == nil {
			t.Fatalf("config %d accepted: %+v", i, c)
		}
	}
}

// TestValidateRefusesNegatives: a negative size or count is refused by
// name, by Validate and by Build, where it once built (CacheUnits -5: no
// cache).
func TestValidateRefusesNegatives(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"CacheUnits", func(c *Config) { c.CacheUnits = -5 }},
		{"ChildBytes", func(c *Config) { c.ChildBytes = -100 }},
		{"PoolPages", func(c *Config) { c.PoolPages = -8 }},
		{"PoolShards", func(c *Config) { c.PoolShards = -2 }},
	} {
		cfg := smallCfg()
		tc.set(&cfg)
		err := cfg.WithDefaults().Validate()
		if !errors.Is(err, ErrNegative) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate = %v, want ErrNegative naming the field", tc.field, err)
		}
		if _, err := Build(cfg); !errors.Is(err, ErrNegative) {
			t.Errorf("%s: Build = %v, want ErrNegative", tc.field, err)
		}
	}
	if err := smallCfg().WithDefaults().Validate(); err != nil {
		t.Fatalf("the base config is refused: %v", err)
	}
}

func TestBuildStartsCold(t *testing.T) {
	db, err := Build(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if s := db.Disk.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Fatalf("stats not reset after build: %+v", s)
	}
	if db.Pool.PinnedCount() != 0 {
		t.Fatal("pinned pages after build")
	}
	// First access must hit the disk (pool is cold).
	if _, err := db.Parent.Tree.Get(0); err != nil {
		t.Fatal(err)
	}
	if s := db.Disk.Stats(); s.Reads == 0 {
		t.Fatal("pool not cold after build")
	}
}

func TestShareFactor(t *testing.T) {
	c := Config{UseFactor: 5, OverlapFactor: 3}
	if c.ShareFactor() != 15 {
		t.Fatalf("sharefactor = %d", c.ShareFactor())
	}
}
