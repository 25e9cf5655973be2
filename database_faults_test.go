package corep

import (
	"path/filepath"
	"strings"
	"testing"

	"corep/internal/disk"
)

// buildFaultDB makes a database whose pool is small enough that scans
// really hit the simulated disk, with one relation of enough rows to
// span many pages.
func buildFaultDB(t *testing.T) *Database {
	t.Helper()
	return fillFaultDB(t, NewDatabase(4))
}

// fillFaultDB gives db buildFaultDB's relation.
func fillFaultDB(t *testing.T, db *Database) *Database {
	t.Helper()
	rel, err := db.CreateRelation("item", IntField("OID"), StrField("name"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 400; i++ {
		if _, err := rel.Insert(Row{Int(i), Str(strings.Repeat("x", 40))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestFaultPlanRetriesAreInvisible(t *testing.T) {
	db := buildFaultDB(t)
	want, err := db.Query("retrieve (item.OID) where item.OID >= 1")
	if err != nil {
		t.Fatal(err)
	}

	// Transient-only faults at a rate the default retry policy absorbs:
	// queries keep answering identically.
	if !db.SetFaultPlan(&FaultConfig{Seed: 5, TransientRate: 0.3}) {
		t.Fatal("in-memory backend should support fault injection")
	}
	got, err := db.Query("retrieve (item.OID) where item.OID >= 1")
	if err != nil {
		t.Fatalf("query under transient faults: %v", err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows diverged under transient faults: %d vs %d", len(got.Rows), len(want.Rows))
	}
	fs := db.Snapshot().Faults
	if fs.Injected == 0 || fs.Transient == 0 {
		t.Fatalf("plan injected nothing: %+v", fs)
	}
	if fs.Recovered == 0 {
		t.Fatalf("pool never recovered a transient fault: %+v", fs)
	}

	// Clearing the plan stops injection but keeps the counters readable.
	if !db.SetFaultPlan(nil) {
		t.Fatal("clearing the plan failed")
	}
	ops := db.Snapshot().Faults.Ops
	if ops != 0 {
		t.Fatalf("cleared plan still observing ops: %+v", db.Snapshot().Faults)
	}
	if _, err := db.Query("retrieve (item.OID) where item.OID >= 1"); err != nil {
		t.Fatalf("query after clearing plan: %v", err)
	}
}

func TestFaultPlanPermanentErrorsAreAttributed(t *testing.T) {
	db := buildFaultDB(t)
	// Condemn pages aggressively: a full scan must eventually fail, and
	// the failure must be attributable to injection.
	db.SetFaultPlan(&FaultConfig{Seed: 9, PermanentRate: 0.2})
	_, err := db.Query("retrieve (item.name) where item.OID >= 1")
	if err == nil {
		t.Fatal("scan over condemned pages succeeded")
	}
	if !disk.IsFault(err) {
		t.Fatalf("error not attributed to injection: %v", err)
	}
	if fs := db.Snapshot().Faults; fs.Permanent == 0 {
		t.Fatalf("no permanent hits recorded: %+v", fs)
	}
}

// TestFaultPlanOnFileBackedDatabase: a page file takes a fault plan too.
// SetFaultPlan reaches disk.FileDisk's SetFault only through an
// interface assertion, so without this a file database could lose its
// faults and SetFaultPlan return false unnoticed.
func TestFaultPlanOnFileBackedDatabase(t *testing.T) {
	db, err := Open(Options{Path: filepath.Join(t.TempDir(), "faults.db"), BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillFaultDB(t, db)
	const q = "retrieve (item.OID) where item.OID >= 1"
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !db.SetFaultPlan(&FaultConfig{Seed: 5, TransientRate: 0.3}) {
		t.Fatal("file backend refused the fault plan")
	}
	got, err := db.Query(q)
	if err != nil {
		t.Fatalf("query under transient faults: %v", err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows diverged under transient faults: %d vs %d", len(got.Rows), len(want.Rows))
	}
	fs := db.Snapshot().Faults
	if fs.Ops == 0 || fs.Injected == 0 || fs.Transient == 0 || fs.Recovered == 0 {
		t.Fatalf("the plan did not reach the page file: %+v", fs)
	}
	if !db.SetFaultPlan(nil) {
		t.Fatal("clearing the plan failed")
	}
}
