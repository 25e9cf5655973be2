package corep_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corep"
)

// buildWALDB opens a file-backed database at path with the WAL on and
// loads n rows into relation "r".
func buildWALDB(t *testing.T, path string, n int64) *corep.Database {
	t.Helper()
	db, err := corep.OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("r", corep.IntField("k"), corep.StrField("v"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if _, err := rel.Insert(corep.Row{corep.Int(i), corep.Str("v")}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestWALCrashRecovery kills the process's view of a WAL-enabled
// database (abandon the handle, never Checkpoint) and reopens the
// files: every acknowledged commit must be readable.
func TestWALCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.db")
	db := buildWALDB(t, path, 200)
	rel, _ := db.Relation("r")
	if err := rel.Update(7, corep.Row{corep.Int(7), corep.Str("updated")}); err != nil {
		t.Fatal(err)
	}
	// Crash: drop the handle without Close/Checkpoint. The buffer pool's
	// dirty frames die with it; the page file and the log survive.
	db = nil

	db2, err := corep.OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := db2.RecoveryResult()
	if res == nil {
		t.Fatal("no recovery happened")
	}
	// 200 inserts + 1 update + 1 create = 202 acknowledged commits.
	if len(res.Commits) != 202 {
		t.Fatalf("replayed %d commits, want 202", len(res.Commits))
	}
	if res.Replayed == 0 {
		t.Fatal("no page images replayed")
	}
	rel2, err := db2.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		row, err := rel2.Get(i)
		if err != nil {
			t.Fatalf("get %d after recovery: %v", i, err)
		}
		want := "v"
		if i == 7 {
			want = "updated"
		}
		if row[1].Str != want {
			t.Fatalf("row %d = %q, want %q", i, row[1].Str, want)
		}
	}
	// Recovery truncated the log: a second reopen replays nothing.
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := corep.OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.RecoveryResult() != nil {
		t.Fatal("second reopen replayed an already-recovered log")
	}
}

// TestWALTornPageHealed smashes the tail half of every page in the page
// file — the worst torn-write outcome a crash can leave — and reopens:
// redo from full page images must restore every row.
func TestWALTornPageHealed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.db")
	_ = buildWALDB(t, path, 150) // abandoned: crash without checkpoint

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 2048
	for off := 0; off+pageSize <= len(raw); off += pageSize {
		for i := off + pageSize/2; i < off+pageSize; i++ {
			raw[i] = 0xFF
		}
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
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
	for i := int64(0); i < 150; i++ {
		row, err := rel2.Get(i)
		if err != nil {
			t.Fatalf("get %d on healed file: %v", i, err)
		}
		if row[1].Str != "v" {
			t.Fatalf("row %d = %q after healing", i, row[1].Str)
		}
	}
}

// TestWALCheckpointTruncates asserts Checkpoint is the log's
// truncation point and leaves nothing to replay.
func TestWALCheckpointTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	db := buildWALDB(t, path, 50)
	fi, err := os.Stat(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("no log written by 50 commits")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fi, err = os.Stat(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("log is %d bytes after checkpoint, want 0", fi.Size())
	}
	ws := db.Snapshot().WAL
	if ws == nil || ws.Truncates != 1 {
		t.Fatalf("WALStats = %+v, want one truncation", ws)
	}
	// Post-checkpoint commits land in the (fresh) log and recover.
	rel, _ := db.Relation("r")
	if _, err := rel.Insert(corep.Row{corep.Int(999), corep.Str("late")}); err != nil {
		t.Fatal(err)
	}
	db = nil // crash

	db2, err := corep.OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel2, _ := db2.Relation("r")
	row, err := rel2.Get(999)
	if err != nil {
		t.Fatal(err)
	}
	if row[1].Str != "late" {
		t.Fatalf("post-checkpoint row = %v", row)
	}
}

// TestWALSnapshotCounters asserts the durability counters surface in
// Database.Snapshot().
func TestWALSnapshotCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.db")
	db := buildWALDB(t, path, 20)
	defer db.Close()
	snap := db.Snapshot()
	if snap.WAL == nil {
		t.Fatal("Snapshot().WAL is nil with the WAL on")
	}
	if snap.WAL.Commits != 21 { // 20 inserts + relation create
		t.Fatalf("commits = %d, want 21", snap.WAL.Commits)
	}
	if snap.WAL.Fsyncs == 0 || snap.WAL.PageImages == 0 || snap.WAL.Appends == 0 {
		t.Fatalf("zero counters: %+v", snap.WAL)
	}
	if snap.WAL.GroupSize < 1 {
		t.Fatalf("group size %v < 1", snap.WAL.GroupSize)
	}
}

// TestWALInMemoryRejected: nothing to log when the disk is DRAM.
func TestWALInMemoryRejected(t *testing.T) {
	db := corep.NewDatabase(8)
	if err := db.EnableWAL(); err == nil {
		t.Fatal("EnableWAL accepted on an in-memory database")
	}
}

// TestWALCacheReadsDoNotWedgePool runs a cached read-heavy stretch with
// the gate armed: the outside cache dirties hash-file pages through the
// pool, and the pressure-relief capture must keep eviction supplied
// with victims (pool of 16 frames, far more pages touched).
func TestWALCacheReadsDoNotWedgePool(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cached.db")
	db, err := corep.Open(corep.Options{Path: path, BufferPages: 16, CacheUnits: 2000})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	child, err := db.CreateRelation("child", corep.IntField("k"), corep.IntField("x"))
	if err != nil {
		t.Fatal(err)
	}
	parent, err := db.CreateRelation("parent", corep.IntField("k"), corep.ChildrenField("kids"))
	if err != nil {
		t.Fatal(err)
	}
	var kids []corep.OID
	for i := int64(0); i < 60; i++ {
		oid, err := child.Insert(corep.Row{corep.Int(i), corep.Int(i * 10)})
		if err != nil {
			t.Fatal(err)
		}
		kids = append(kids, oid)
	}
	for p := int64(0); p < 40; p++ {
		lo := int(p) % len(kids)
		if _, err := parent.InsertWith(
			corep.Row{corep.Int(p), corep.Value{}},
			map[string]corep.Children{"kids": corep.OIDChildren(kids[lo : lo+10]...)}); err != nil {
			t.Fatal(err)
		}
	}
	// Read-only stretch: every parent's unit is resolved and cached,
	// dirtying cache pages with no commits to capture them.
	for round := 0; round < 3; round++ {
		for p := int64(0); p < 40; p++ {
			if _, err := db.RetrievePath("parent", "kids", "x", p, p); err != nil {
				t.Fatalf("round %d parent %d: %v", round, p, err)
			}
		}
	}
}

// TestReopenTruncatedMeta is the sidecar-corruption satellite: a
// truncated or garbage sidecar must fail with an error naming the file
// and the problem, not a decode panic or a silently-empty database.
func TestReopenTruncatedMeta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.db")
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

	whole, err := os.ReadFile(path + ".meta")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"truncated", whole[:len(whole)/2]},
		{"garbage", []byte("\x00\xff\x00\xff not a sidecar")},
		{"empty", nil},
	} {
		if err := os.WriteFile(path+".meta", tc.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := corep.OpenDatabaseFile(path, 8)
		if err == nil {
			t.Fatalf("%s sidecar accepted", tc.name)
		}
		if !strings.Contains(err.Error(), "corrupt metadata") || !strings.Contains(err.Error(), ".meta") {
			t.Fatalf("%s sidecar: undescriptive error %q", tc.name, err)
		}
	}
}
