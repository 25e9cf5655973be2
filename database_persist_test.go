package corep_test

import (
	"os"
	"path/filepath"
	"testing"

	"corep"
)

func TestPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "objects.db")

	// Session 1: build, checkpoint, close.
	db, err := corep.OpenDatabaseFile(path, 32)
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
	}{{"John", 62}, {"Mary", 62}, {"Paul", 68}} {
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
		corep.Row{corep.Int(1), corep.Str("elders"), corep.Value{}},
		map[string]corep.Children{"members": corep.OIDChildren(oids...)}); err != nil {
		t.Fatal(err)
	}
	if _, err := group.InsertWith(
		corep.Row{corep.Int(2), corep.Str("elders-proc"), corep.Value{}},
		map[string]corep.Children{"members": corep.ProcChildren(`retrieve (person.all) where person.age >= 60`)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2: reopen and query both representations.
	db2, err := corep.OpenDatabaseFile(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	names := db2.Relations()
	if len(names) != 2 || names[0] != "group" || names[1] != "person" {
		t.Fatalf("relations = %v", names)
	}
	got, err := db2.RetrievePath("group", "members", "name", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(got) != "John Mary Paul" {
		t.Fatalf("oid members = %q", joinVals(got))
	}
	got, err = db2.RetrievePath("group", "members", "name", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(got) != "John Mary Paul" {
		t.Fatalf("proc members = %q", joinVals(got))
	}

	// New data still flows through the reopened handles.
	person2, err := db2.Relation("person")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := person2.Insert(corep.Row{corep.Int(9), corep.Str("Ada"), corep.Int(81)}); err != nil {
		t.Fatal(err)
	}
	got, err = db2.RetrievePath("group", "members", "name", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if joinVals(got) != "John Mary Paul Ada" {
		t.Fatalf("after insert = %q", joinVals(got))
	}
}

func TestPersistUncheckpointedChangesSurviveClose(t *testing.T) {
	// Close checkpoints implicitly, so nothing is lost.
	path := filepath.Join(t.TempDir(), "x.db")
	db, err := corep.OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("r", corep.IntField("k"), corep.StrField("v"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		if _, err := rel.Insert(corep.Row{corep.Int(i), corep.Str("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := corep.OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel2, err := db2.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	row, err := rel2.Get(299)
	if err != nil {
		t.Fatal(err)
	}
	if row[1].Str != "v" {
		t.Fatalf("row = %v", row)
	}
}

func TestPersistUpdateAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "y.db")
	db, err := corep.OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.CreateRelation("r", corep.IntField("k"), corep.StrField("v"))
	if _, err := rel.Insert(corep.Row{corep.Int(1), corep.Str("old")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := corep.OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	rel2, _ := db2.Relation("r")
	if err := rel2.Update(1, corep.Row{corep.Int(1), corep.Str("new")}); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := corep.OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	rel3, _ := db3.Relation("r")
	row, err := rel3.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if row[1].Str != "new" {
		t.Fatalf("row = %v", row)
	}
}

func TestCheckpointOnInMemory(t *testing.T) {
	db := corep.NewDatabase(8)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint on in-memory database accepted")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("in-memory close: %v", err)
	}
}

func TestReopenCorruptMeta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "z.db")
	db, err := corep.OpenDatabaseFile(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("r", corep.IntField("k")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path+".meta", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := corep.OpenDatabaseFile(path, 8); err == nil {
		t.Fatal("corrupt metadata accepted")
	}
}

// writeFile is a test helper (avoids importing os in multiple places).
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
