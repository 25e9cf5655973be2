package corep_test

import (
	"testing"

	"corep"
)

// TestVersionedServingCounters checks the facade wiring of the version
// store: cached reads pin snapshot epochs, updates commit with an epoch
// bump, and the counters surface through Snapshot().
func TestVersionedServingCounters(t *testing.T) {
	db, person, _ := openGroups(t, corep.Options{BufferPages: 64, CacheUnits: 32, Versioned: true})
	// The store publishes a bootstrap epoch at Open, and the load's six
	// inserts commit through it.
	loaded := db.Snapshot().Txn.Commits
	if loaded != 1+6 {
		t.Fatalf("commits after the load = %d, want 7 (bootstrap + 6 inserts)", loaded)
	}

	if _, err := db.RetrievePath("group", "members", "name", 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RetrievePath("group", "members", "name", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := person.Update(1, corep.Row{corep.Int(1), corep.Str("Johnny"), corep.Int(63)}); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	// The update's commit; two pinned read epochs; nothing aborted,
	// nothing left active.
	if snap.Txn.Commits != loaded+1 {
		t.Fatalf("commits = %d, want %d (the load's + the update)", snap.Txn.Commits, loaded+1)
	}
	if snap.Txn.Snapshots < 2 {
		t.Fatalf("snapshot reads = %d, want >= 2", snap.Txn.Snapshots)
	}
	if snap.Txn.Aborts != 0 || snap.Txn.Active != 0 {
		t.Fatalf("aborts=%d active=%d, want 0/0", snap.Txn.Aborts, snap.Txn.Active)
	}

	// The update's commit invalidated the cached unit through the
	// watermark protocol: the next read re-materializes the new value.
	names, err := db.RetrievePath("group", "members", "name", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(names) != "Johnny Mary Paul" {
		t.Fatalf("stale read after versioned update: %q", joinVals(names))
	}
}

// TestVersionedServingIsOptIn pins the default: without
// Options.Versioned the snapshot reports no txn layer and the
// historic cache protocol runs unchanged.
func TestVersionedServingIsOptIn(t *testing.T) {
	db, _, _ := cachedDB(t)
	if _, err := db.RetrievePath("group", "members", "name", 1, 1); err != nil {
		t.Fatal(err)
	}
	if snap := db.Snapshot(); snap.Txn != nil {
		t.Fatalf("txn counters reported without opt-in: %+v", snap.Txn)
	}
}
