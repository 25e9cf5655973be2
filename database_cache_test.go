package corep_test

import (
	"testing"

	"corep"
)

// cachedDB builds persons + an elders group under both OID and
// procedural representations, with the outside cache on.
func cachedDB(t *testing.T) (*corep.Database, *corep.Relation, *corep.Relation) {
	t.Helper()
	return openGroups(t, corep.Options{BufferPages: 64, CacheUnits: 32})
}

// openGroups is cachedDB's database opened with opts.
func openGroups(t *testing.T, opts corep.Options) (*corep.Database, *corep.Relation, *corep.Relation) {
	t.Helper()
	db, err := corep.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	person, err := db.CreateRelation("person",
		corep.IntField("OID"), corep.StrField("name"), corep.IntField("age"))
	if err != nil {
		t.Fatal(err)
	}
	var oids []corep.OID
	for i, p := range []struct {
		name string
		age  int64
	}{{"John", 62}, {"Mary", 62}, {"Paul", 68}, {"Jill", 8}} {
		oid, err := person.Insert(corep.Row{corep.Int(int64(i + 1)), corep.Str(p.name), corep.Int(p.age)})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	group, err := db.CreateRelation("group",
		corep.IntField("key"), corep.StrField("name"), corep.ChildrenField("members"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := group.InsertWith(
		corep.Row{corep.Int(1), corep.Str("elders-oid"), corep.Value{}},
		map[string]corep.Children{"members": corep.OIDChildren(oids[0], oids[1], oids[2])},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := group.InsertWith(
		corep.Row{corep.Int(2), corep.Str("elders-proc"), corep.Value{}},
		map[string]corep.Children{"members": corep.ProcChildren(`retrieve (person.all) where person.age >= 60`)},
	); err != nil {
		t.Fatal(err)
	}
	return db, person, group
}

func TestCachedOIDPath(t *testing.T) {
	db, _, _ := cachedDB(t)
	names, err := db.RetrievePath("group", "members", "name", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(names) != "John Mary Paul" {
		t.Fatalf("got %q", joinVals(names))
	}
	if db.CachedUnits() != 1 {
		t.Fatalf("cached units = %d", db.CachedUnits())
	}
	// Second retrieval hits the cache.
	before := *db.Snapshot().Cache
	if _, err := db.RetrievePath("group", "members", "name", 1, 1); err != nil {
		t.Fatal(err)
	}
	delta := db.Snapshot().Cache.Sub(before)
	if delta.Hits == 0 || delta.Misses != 0 {
		t.Fatalf("cache delta = %+v", delta)
	}
}

func TestCachedProcPath(t *testing.T) {
	db, _, _ := cachedDB(t)
	names, err := db.RetrievePath("group", "members", "name", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(names) != "John Mary Paul" {
		t.Fatalf("got %q", joinVals(names))
	}
	before := *db.Snapshot().Cache
	names, err = db.RetrievePath("group", "members", "name", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(names) != "John Mary Paul" {
		t.Fatalf("cached read got %q", joinVals(names))
	}
	if delta := db.Snapshot().Cache.Sub(before); delta.Hits == 0 {
		t.Fatalf("no cache hit: %+v", delta)
	}
}

func TestUpdateInvalidatesOIDUnit(t *testing.T) {
	db, person, _ := cachedDB(t)
	if _, err := db.RetrievePath("group", "members", "name", 1, 1); err != nil {
		t.Fatal(err)
	}
	// Rename Mary; the cached unit must be dropped and the re-read fresh.
	if err := person.Update(2, corep.Row{corep.Int(2), corep.Str("Marie"), corep.Int(63)}); err != nil {
		t.Fatal(err)
	}
	names, err := db.RetrievePath("group", "members", "name", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(names) != "John Marie Paul" {
		t.Fatalf("stale read: %q", joinVals(names))
	}
}

func TestUpdateInvalidatesProcResult(t *testing.T) {
	db, person, _ := cachedDB(t)
	if _, err := db.RetrievePath("group", "members", "name", 2, 2); err != nil {
		t.Fatal(err)
	}
	// Jill grows old enough to qualify: a newly-satisfying tuple, caught
	// by the relation-level lock, not the per-tuple ones.
	if err := person.Update(4, corep.Row{corep.Int(4), corep.Str("Jill"), corep.Int(70)}); err != nil {
		t.Fatal(err)
	}
	names, err := db.RetrievePath("group", "members", "name", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(names) != "John Mary Paul Jill" {
		t.Fatalf("stale procedural result: %q", joinVals(names))
	}
}

func TestInsertInvalidatesProcResult(t *testing.T) {
	db, person, _ := cachedDB(t)
	if _, err := db.RetrievePath("group", "members", "name", 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := person.Insert(corep.Row{corep.Int(9), corep.Str("Ada"), corep.Int(81)}); err != nil {
		t.Fatal(err)
	}
	names, err := db.RetrievePath("group", "members", "name", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(names) != "John Mary Paul Ada" {
		t.Fatalf("stale after insert: %q", joinVals(names))
	}
}

func TestProcEntrySharedAcrossGroups(t *testing.T) {
	db, _, group := cachedDB(t)
	// A second group storing the identical query shares the cache entry.
	if _, err := group.InsertWith(
		corep.Row{corep.Int(3), corep.Str("elders-proc-2"), corep.Value{}},
		map[string]corep.Children{"members": corep.ProcChildren(`retrieve (person.all) where person.age >= 60`)},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RetrievePath("group", "members", "name", 2, 2); err != nil {
		t.Fatal(err)
	}
	units := db.CachedUnits()
	before := *db.Snapshot().Cache
	if _, err := db.RetrievePath("group", "members", "name", 3, 3); err != nil {
		t.Fatal(err)
	}
	if db.CachedUnits() != units {
		t.Fatalf("second group created its own entry: %d → %d", units, db.CachedUnits())
	}
	if delta := db.Snapshot().Cache.Sub(before); delta.Hits == 0 {
		t.Fatal("second group missed the shared entry")
	}
}

func TestUpdateErrors(t *testing.T) {
	db, person, _ := cachedDB(t)
	_ = db
	if err := person.Update(99, corep.Row{corep.Int(99), corep.Str("x"), corep.Int(1)}); err == nil {
		t.Fatal("update of missing key accepted")
	}
	if err := person.Update(1, corep.Row{corep.Int(2), corep.Str("x"), corep.Int(1)}); err == nil {
		t.Fatal("key change accepted")
	}
	if err := person.Update(1, corep.Row{corep.Int(1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestRetrievePathN(t *testing.T) {
	db := corep.NewDatabase(64)
	leaf, err := db.CreateRelation("leaf", corep.IntField("OID"), corep.IntField("v"))
	if err != nil {
		t.Fatal(err)
	}
	var leafOIDs []corep.OID
	for i := int64(0); i < 6; i++ {
		oid, err := leaf.Insert(corep.Row{corep.Int(i), corep.Int(i * 100)})
		if err != nil {
			t.Fatal(err)
		}
		leafOIDs = append(leafOIDs, oid)
	}
	mid, err := db.CreateRelation("mid", corep.IntField("OID"), corep.ChildrenField("leaves"))
	if err != nil {
		t.Fatal(err)
	}
	var midOIDs []corep.OID
	for i := int64(0); i < 3; i++ {
		oid, err := mid.InsertWith(
			corep.Row{corep.Int(i), corep.Value{}},
			map[string]corep.Children{"leaves": corep.OIDChildren(leafOIDs[i*2], leafOIDs[i*2+1])})
		if err != nil {
			t.Fatal(err)
		}
		midOIDs = append(midOIDs, oid)
	}
	top, err := db.CreateRelation("top", corep.IntField("OID"), corep.ChildrenField("mids"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := top.InsertWith(
		corep.Row{corep.Int(1), corep.Value{}},
		map[string]corep.Children{"mids": corep.OIDChildren(midOIDs...)}); err != nil {
		t.Fatal(err)
	}
	// Three-dot path: top.mids.leaves.v — all six leaf values.
	vals, err := db.RetrievePathN("top", []string{"mids", "leaves", "v"}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 6 {
		t.Fatalf("got %d values", len(vals))
	}
	sum := int64(0)
	for _, v := range vals {
		sum += v.Int
	}
	if sum != 100*(0+1+2+3+4+5) {
		t.Fatalf("sum = %d", sum)
	}
	// Error cases.
	if _, err := db.RetrievePathN("top", []string{"mids"}, 1, 1); err == nil {
		t.Fatal("single-attribute path accepted")
	}
	if _, err := db.RetrievePathN("top", []string{"mids", "nope", "v"}, 1, 1); err == nil {
		t.Fatal("unknown level accepted")
	}
}
