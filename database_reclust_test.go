package corep

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"corep/internal/testutil"
	"corep/internal/wal"
)

// buildScatteredDB creates a database whose groups' members are spread
// across a large item relation — the layout adaptive clustering is
// supposed to fix. Returns the database and the group count.
func buildScatteredDB(t *testing.T, pool int) (*Database, int) {
	t.Helper()
	const items, groups, fanout = 800, 8, 4
	db := NewDatabase(pool)
	item, err := db.CreateRelation("item", IntField("OID"), StrField("name"), IntField("val"))
	if err != nil {
		t.Fatal(err)
	}
	oids := make([]OID, items+1)
	for k := 1; k <= items; k++ {
		oid, err := item.Insert(Row{Int(int64(k)), Str(fmt.Sprintf("item-%04d-padding-to-spread-pages", k)), Int(int64(k * 10))})
		if err != nil {
			t.Fatal(err)
		}
		oids[k] = oid
	}
	group, err := db.CreateRelation("grp", IntField("key"), ChildrenField("members"))
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g <= groups; g++ {
		// Members of one group land items/fanout keys apart — maximally
		// scattered across the item relation's pages.
		members := make([]OID, fanout)
		for j := 0; j < fanout; j++ {
			members[j] = oids[g+j*(items/fanout)]
		}
		if _, err := group.InsertWith(Row{Int(int64(g)), Value{}},
			map[string]Children{"members": OIDChildren(members...)}); err != nil {
			t.Fatal(err)
		}
	}
	return db, groups
}

// TestReclusteringPacksHotUnits is the facade acceptance test: after
// heat-fed reorganization, the same queries return the same values at
// a lower cold-cache I/O cost than an identical database that never
// reclusters.
func TestReclusteringPacksHotUnits(t *testing.T) {
	subject, groups := buildScatteredDB(t, 8)
	control, _ := buildScatteredDB(t, 8)

	if err := subject.EnableReclustering(0, 0); err != nil {
		t.Fatal(err)
	}
	readAll := func(db *Database) []Value {
		var all []Value
		for g := 1; g <= groups; g++ {
			vals, err := db.RetrievePath("grp", "members", "val", int64(g), int64(g))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, vals...)
		}
		return all
	}
	want := readAll(control)
	before := readAll(subject)
	if fmt.Sprint(before) != fmt.Sprint(want) {
		t.Fatalf("pre-reorganize values diverge: %v vs %v", before, want)
	}

	res, err := subject.Reorganize(groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != groups || res.Objects == 0 || res.Pages == 0 {
		t.Fatalf("reorganize did nothing: %+v", res)
	}

	after := readAll(subject)
	if fmt.Sprint(after) != fmt.Sprint(want) {
		t.Fatalf("post-reorganize values diverge: %v vs %v", after, want)
	}

	// Cold replay: the packed copies must cost strictly less I/O than
	// the scattered base rows.
	if err := subject.ResetCold(); err != nil {
		t.Fatal(err)
	}
	if err := control.ResetCold(); err != nil {
		t.Fatal(err)
	}
	readAll(subject)
	readAll(control)
	if sr, cr := subject.Stats().Reads, control.Stats().Reads; sr >= cr {
		t.Errorf("reclustered cold reads %d, want < control's %d", sr, cr)
	}

	snap := subject.Snapshot()
	if snap.Reclust == nil {
		t.Fatal("Snapshot().Reclust nil after EnableReclustering")
	}
	if snap.Reclust.Migrated == 0 || snap.Reclust.Placements == 0 || snap.Reclust.Tracked == 0 {
		t.Errorf("empty reclust snapshot: %+v", *snap.Reclust)
	}
	if control.Snapshot().Reclust != nil {
		t.Error("control Snapshot().Reclust non-nil without EnableReclustering")
	}
}

// TestReclusteringUpdateRetiresPlacement: an in-place update must
// retire the stale copy, and the unit must become eligible for
// re-reorganization carrying the new value.
func TestReclusteringUpdateRetiresPlacement(t *testing.T) {
	db, groups := buildScatteredDB(t, 8)
	if err := db.EnableReclustering(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RetrievePath("grp", "members", "val", 1, int64(groups)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Reorganize(groups); err != nil {
		t.Fatal(err)
	}

	item, err := db.Relation("item")
	if err != nil {
		t.Fatal(err)
	}
	// Item 1 is a member of group 1 (and was migrated).
	if err := item.Update(1, Row{Int(1), Str("updated"), Int(424242)}); err != nil {
		t.Fatal(err)
	}
	if db.ReclustStats().Dropped == 0 {
		t.Error("update of a migrated member dropped no placement")
	}
	vals, err := db.RetrievePath("grp", "members", "val", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Int != 424242 {
		t.Fatalf("post-update retrieve sees %d, want 424242", vals[0].Int)
	}

	// The unit is hot again and re-reorganizes with the fresh value.
	if _, err := db.Reorganize(groups); err != nil {
		t.Fatal(err)
	}
	vals, err = db.RetrievePath("grp", "members", "val", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].Int != 424242 {
		t.Fatalf("re-reorganized copy serves %d, want 424242", vals[0].Int)
	}
}

// TestReclusteringHeatFromEveryPathForm: the heat tracker is fed by the
// path expander, so whichever entry point expands an OID list owned by a
// stored object heats that unit — the root of a Query as much as a level
// RetrievePathN reaches through an OID — and nothing else does: inline
// and stored-query members belong to no unit.
func TestReclusteringHeatFromEveryPathForm(t *testing.T) {
	for name, retrieve := range map[string]func(db *Database) error{
		"Query": func(db *Database) error { _, err := db.Query(`retrieve (shelf.grps.members.name)`); return err },
		"RetrievePathN": func(db *Database) error {
			_, err := db.RetrievePathN("shelf", []string{"grps", "members", "name"}, 1, 1)
			return err
		},
	} {
		db := buildMixedDB(t, 16)
		if err := db.EnableReclustering(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := retrieve(db); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hot := map[string]bool{}
		for _, u := range db.HottestUnits(0) {
			hot[fmt.Sprintf("%s/%d", u.Relation, u.Key)] = true
		}
		// shelf 1 lists grps by OID; of those only grp 1 lists members by OID.
		if len(hot) != 2 || !hot["shelf/1"] || !hot["grp/1"] {
			t.Errorf("%s heated %v, want shelf/1 and grp/1", name, hot)
		}
	}
}

func TestReclusteringErrors(t *testing.T) {
	db := NewDatabase(8)
	if _, err := db.Reorganize(4); err == nil {
		t.Error("Reorganize without EnableReclustering succeeded")
	}
	if err := db.EnableReclustering(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableReclustering(0, 0); err == nil {
		t.Error("double EnableReclustering succeeded")
	}
	// An empty heat table reorganizes to nothing, not an error.
	res, err := db.Reorganize(4)
	if err != nil || res.Units != 0 {
		t.Errorf("empty reorganize: %+v, %v", res, err)
	}
	if db.HottestUnits(5) != nil {
		t.Error("HottestUnits non-empty on a cold tracker")
	}
}

// TestReclusteringFileReopen: placements are volatile — a reopened
// file-backed database serves every row from its base pages, and the
// orphaned extent pages from the previous run are never referenced.
func TestReclusteringFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reclust.pages")
	db, err := OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	item, err := db.CreateRelation("item", IntField("OID"), IntField("val"))
	if err != nil {
		t.Fatal(err)
	}
	var members []OID
	for k := 1; k <= 50; k++ {
		oid, err := item.Insert(Row{Int(int64(k)), Int(int64(k * 7))})
		if err != nil {
			t.Fatal(err)
		}
		if k%10 == 0 {
			members = append(members, oid)
		}
	}
	group, err := db.CreateRelation("grp", IntField("key"), ChildrenField("members"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := group.InsertWith(Row{Int(1), Value{}},
		map[string]Children{"members": OIDChildren(members...)}); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableReclustering(0, 0); err != nil {
		t.Fatal(err)
	}
	want, err := db.RetrievePath("grp", "members", "val", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Reorganize(4); err != nil {
		t.Fatal(err)
	}
	if db.ReclustStats().Placements == 0 {
		t.Fatal("no placements after Reorganize")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Snapshot().Reclust != nil {
		t.Error("reclustering state survived reopen")
	}
	got, err := re.RetrievePath("grp", "members", "val", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reopened values %v, want %v", got, want)
	}
}

// attachMemWAL puts db under a write-ahead log over an in-memory device
// whose syncs the test can fail.
func attachMemWAL(t *testing.T, db *Database) *wal.MemDevice {
	t.Helper()
	dev := wal.NewMemDevice(0)
	l, err := wal.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.attachWAL(l); err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestReorganizeFailedCommitStrandsNothing: a Reorganize whose commit
// fails publishes no placement, so it must not mark its units done
// either — the next call has to migrate the same units, and the rows
// must equal a never-reclustered control throughout.
func TestReorganizeFailedCommitStrandsNothing(t *testing.T) {
	subject, groups := buildScatteredDB(t, 64)
	control, _ := buildScatteredDB(t, 64)
	if err := subject.EnableReclustering(0, 0); err != nil {
		t.Fatal(err)
	}
	dev := attachMemWAL(t, subject)
	readAll := func(db *Database) string {
		vals, err := db.RetrievePath("grp", "members", "val", 1, int64(groups))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(vals)
	}
	want := readAll(control)
	if got := readAll(subject); got != want { // also feeds the heat
		t.Fatalf("pre-reorganize values diverge: %v vs %v", got, want)
	}

	dev.FailNextSync()
	if _, err := subject.Reorganize(groups); err == nil {
		t.Fatal("Reorganize over a failing fsync reported success")
	}
	if st := subject.ReclustStats(); st.Placements != 0 || st.Batches != 0 {
		t.Fatalf("failed Reorganize published: %+v", *st)
	}
	hot := subject.HottestUnits(0)
	if len(hot) != groups {
		t.Fatalf("HottestUnits(0) lists %d units, want all %d", len(hot), groups)
	}
	for _, u := range hot {
		if u.Migrated {
			t.Fatalf("unit %s/%d marked migrated with nothing placed", u.Relation, u.Key)
		}
	}
	if got := readAll(subject); got != want {
		t.Fatalf("values after the failed batch diverge: %v vs %v", got, want)
	}

	res, err := subject.Reorganize(groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != groups || res.Objects == 0 {
		t.Fatalf("retry skipped the stranded units: %+v", res)
	}
	if st := subject.ReclustStats(); st.Placements != res.Objects {
		t.Fatalf("%d placements for %d migrated rows", st.Placements, res.Objects)
	}
	if got := readAll(subject); got != want {
		t.Fatalf("post-reorganize values diverge: %v vs %v", got, want)
	}
	testutil.AssertNoLeaks(t, subject.core.Pool)
}

// TestFacadeFailedSyncKeepsSeqAndPublishesNothing: the facade shares
// the core's sync-failure contract — the in-doubt commit's sequence
// number comes back with the error — and its write path publishes
// nothing for it: no epoch, and the cached unit is not invalidated.
func TestFacadeFailedSyncKeepsSeqAndPublishesNothing(t *testing.T) {
	db, _ := buildScatteredDB(t, 64)
	db.EnableVersionedServing()
	if err := db.EnableCache(16); err != nil {
		t.Fatal(err)
	}
	dev := attachMemWAL(t, db)
	if _, err := db.RetrievePathCached("grp", "members", "val", 1, 1); err != nil {
		t.Fatal(err)
	}
	item, err := db.Relation("item")
	if err != nil {
		t.Fatal(err)
	}
	commits, cached := db.TxnStats().Commits, db.CachedUnits()

	dev.FailNextSync()
	if err := item.Update(1, Row{Int(1), Str("x"), Int(-1)}); !errors.Is(err, wal.ErrSyncFailed) {
		t.Fatalf("Update over a failing fsync: %v", err)
	}
	if st := db.TxnStats(); st.Commits != commits || st.Aborts != 1 {
		t.Fatalf("in-doubt update published an epoch: %+v", *st)
	}
	if db.CachedUnits() != cached || db.CacheStats().Invalidations != 0 {
		t.Fatalf("in-doubt update invalidated the cache: %+v", db.CacheStats())
	}

	dev.FailNextSync()
	seq, err := db.commit()
	if seq == 0 || !errors.Is(err, wal.ErrSyncFailed) {
		t.Fatalf("commit over a failing fsync = %d, %v; want the appended record's seq and the sync error", seq, err)
	}
	if next, err := db.commit(); err != nil || next != seq+1 {
		t.Fatalf("following commit = %d, %v; want %d", next, err, seq+1)
	}
}
