package corep_test

import (
	"testing"

	"corep"
)

// cacheOIDs is cachedDB's configuration caching stored queries'
// identities instead of their values.
var cacheOIDs = corep.Options{BufferPages: 64, CacheUnits: 32, CacheMode: corep.CacheOIDs}

func TestCacheOIDsModeBasic(t *testing.T) {
	db, _, _ := openGroups(t, cacheOIDs)
	names, err := db.RetrievePath("group", "members", "name", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(names) != "John Mary Paul" {
		t.Fatalf("got %q", joinVals(names))
	}
	if db.CachedUnits() != 1 {
		t.Fatalf("cached units = %d", db.CachedUnits())
	}
	// Second retrieval hits the cached identity list.
	before := *db.Snapshot().Cache
	if _, err := db.RetrievePath("group", "members", "name", 2, 2); err != nil {
		t.Fatal(err)
	}
	if delta := db.Snapshot().Cache.Sub(before); delta.Hits == 0 {
		t.Fatalf("no hit: %+v", delta)
	}
}

func TestCacheOIDsSurvivesMemberValueUpdate(t *testing.T) {
	// The maintenance advantage of cached OIDs (§2.3): updating a
	// member's value does not invalidate the identity list — and the
	// retrieval still returns the fresh value because values are fetched
	// at query time.
	db, person, _ := openGroups(t, cacheOIDs)
	if _, err := db.RetrievePath("group", "members", "name", 2, 2); err != nil {
		t.Fatal(err)
	}
	units := db.CachedUnits()
	// Rename Mary without changing her age (still qualifies)… but note
	// any update fires the relation-level lock, since it *could* change
	// membership. Rename via a tuple that is NOT a member: Jill.
	if err := person.Update(4, corep.Row{corep.Int(4), corep.Str("Jilly"), corep.Int(8)}); err != nil {
		t.Fatal(err)
	}
	// The relation-level lock invalidates identity lists too (membership
	// might have changed); correctness first.
	_ = units
	names, err := db.RetrievePath("group", "members", "name", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(names) != "John Mary Paul" {
		t.Fatalf("got %q", joinVals(names))
	}
	// And a membership-changing update is reflected.
	if err := person.Update(4, corep.Row{corep.Int(4), corep.Str("Jilly"), corep.Int(99)}); err != nil {
		t.Fatal(err)
	}
	names, err = db.RetrievePath("group", "members", "name", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(names) != "John Mary Paul Jilly" {
		t.Fatalf("stale identities: %q", joinVals(names))
	}
}

func TestCacheOIDsFreshValues(t *testing.T) {
	// Even while the identity list stays cached, values come from the
	// base relation — so a value update between retrievals is visible.
	db, person, _ := openGroups(t, cacheOIDs)
	if _, err := db.RetrievePath("group", "members", "name", 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := person.Update(1, corep.Row{corep.Int(1), corep.Str("Johnny"), corep.Int(62)}); err != nil {
		t.Fatal(err)
	}
	names, err := db.RetrievePath("group", "members", "name", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(names) != "Johnny Mary Paul" {
		t.Fatalf("got %q", joinVals(names))
	}
}
