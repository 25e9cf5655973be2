package corep

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/storage"
	"corep/internal/testutil"
	"corep/internal/tuple"
	"corep/internal/wal"
)

// buildScatteredDB creates a database whose groups' members are spread
// across a large item relation — the layout adaptive clustering is
// supposed to fix. Returns the database and the group count.
func buildScatteredDB(t *testing.T, pool int) (*Database, int) {
	t.Helper()
	db := NewDatabase(pool)
	return db, fillScattered(t, db)
}

// fillScattered loads buildScatteredDB's relations into db. Group g's
// members are items g, g+200, g+400 and g+600.
func fillScattered(t *testing.T, db *Database) int {
	t.Helper()
	const items, groups, fanout = 800, 8, 4
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
	return groups
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

	// A hot object whose children value cannot be parsed is an error, not
	// a unit with nothing to move — whatever the damage is.
	for name, raw := range map[string][]byte{
		"unknown tag": {0x7f, 1, 2, 3},
		"no tag":      {},
	} {
		db := NewDatabase(8)
		grp, err := db.CreateRelation("grp", IntField("key"), ChildrenField("members"))
		if err != nil {
			t.Fatal(err)
		}
		oid, err := grp.InsertWith(Row{Int(1), Value{}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := tuple.Encode(nil, grp.schema, Row{Int(1), tuple.BytesVal(raw)})
		if err != nil {
			t.Fatal(err)
		}
		if err := grp.rel.Tree.Update(1, rec); err != nil {
			t.Fatal(err)
		}
		if err := db.EnableReclustering(0, 0); err != nil {
			t.Fatal(err)
		}
		db.core.Touch(int64(oid))
		if _, err := db.Reorganize(4); !errors.Is(err, object.ErrBadChildren) {
			t.Errorf("%s: Reorganize = %v, want the children codec's error", name, err)
		}
	}
}

// openScatteredFile loads the scattered layout into a fresh file-backed
// database, turns the WAL and reclustering on, and heats every group.
func openScatteredFile(t *testing.T, path string) (*Database, int) {
	t.Helper()
	db, err := OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	groups := fillScattered(t, db)
	if err := db.Checkpoint(); err != nil { // the load itself is not logged
		t.Fatal(err)
	}
	if err := db.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableReclustering(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RetrievePath("grp", "members", "val", 1, int64(groups)); err != nil {
		t.Fatal(err)
	}
	return db, groups
}

// coldUnitReads is what reading group 1's members costs from a cold pool.
func coldUnitReads(t *testing.T, db *Database) (string, int64) {
	t.Helper()
	if err := db.ResetCold(); err != nil {
		t.Fatal(err)
	}
	vals, err := db.RetrievePath("grp", "members", "val", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(vals), db.Stats().Reads
}

// TestReclusteringFileReopen: placements ride the sidecar metadata, so a
// reopened database returns the same values and serves a reorganized
// unit from the same packed copies at the same cost, before
// EnableReclustering is called again — and EnableReclustering then
// succeeds, once.
func TestReclusteringFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reclust.pages")
	db, groups := openScatteredFile(t, path)
	_, scattered := coldUnitReads(t, db)
	res, err := db.Reorganize(groups)
	if err != nil {
		t.Fatal(err)
	}
	want, packed := coldUnitReads(t, db)
	if packed >= scattered {
		t.Fatalf("packed unit reads %d pages, scattered %d", packed, scattered)
	}
	placed := db.core.Reclust.Place.Snapshot()
	if len(placed) != res.Objects || res.Objects == 0 {
		t.Fatalf("%d placements for %d migrated rows", len(placed), res.Objects)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDatabaseFile(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	snap := re.Snapshot().Reclust
	if snap == nil || snap.Placements != len(placed) {
		t.Fatalf("reopened reclust snapshot %+v, want %d placements", snap, len(placed))
	}
	for oid, e := range placed {
		if rid, ok := re.core.Placed(oid, 0); !ok || rid != e.RID {
			t.Fatalf("placement of %v: reopened %v (%v), closed %v", oid, rid, ok, e.RID)
		}
	}
	if got, reads := coldUnitReads(t, re); got != want || reads != packed {
		t.Fatalf("reopened unit: %s in %d reads, want %s in %d", got, reads, want, packed)
	}
	if err := re.EnableReclustering(0, 0); err != nil {
		t.Fatalf("EnableReclustering over restored placements: %v", err)
	}
	if err := re.EnableReclustering(0, 0); err == nil {
		t.Error("double EnableReclustering succeeded after a reopen")
	}
	// The packed units are still migrated: fresh heat moves nothing twice.
	if _, err := re.RetrievePath("grp", "members", "val", 1, int64(groups)); err != nil {
		t.Fatal(err)
	}
	if res, err := re.Reorganize(groups); err != nil || res.Objects != 0 {
		t.Fatalf("Reorganize after reopen re-copied placed rows: %+v, %v", res, err)
	}
}

// TestReclusteringRetiredPlacementStaysRetired: the commit that rewrites
// a migrated member's base row also logs the placements without it, so
// neither a crash (WAL replay) nor a checkpoint (sidecar, log truncated)
// can bring the stale copy back. And a commit that changes no placement
// does not encode the map again.
func TestReclusteringRetiredPlacementStaysRetired(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "retire.pages")
			db, groups := openScatteredFile(t, path)
			res, err := db.Reorganize(groups)
			if err != nil {
				t.Fatal(err)
			}
			item, err := db.Relation("item")
			if err != nil {
				t.Fatal(err)
			}
			encodes := db.core.Reclust.Encodes()
			for k := int64(100); k < 105; k++ { // not a member of any group
				if err := item.Update(k, Row{Int(k), Str("elsewhere"), Int(-k)}); err != nil {
					t.Fatal(err)
				}
			}
			if got := db.core.Reclust.Encodes(); got != encodes {
				t.Fatalf("5 commits that changed no placement encoded the map %d times", got-encodes)
			}
			member := OID(0)
			for oid := range db.core.Reclust.Place.Snapshot() {
				if oid.Key() == 1 {
					member = oid // item 1, of group 1
				}
			}
			if err := item.Update(1, Row{Int(1), Str("a longer name than the copy has room for, retired"), Int(424242)}); err != nil {
				t.Fatal(err)
			}
			if got := db.core.Reclust.Encodes(); got != encodes+1 {
				t.Fatalf("the retiring commit encoded the map %d times, want once", got-encodes)
			}
			if checkpoint {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if fi, err := os.Stat(path + ".wal"); err != nil || fi.Size() != 0 {
					t.Fatalf("log not truncated by the checkpoint: %v, %v", fi, err)
				}
			}
			db = nil // crash: no Close

			re, err := OpenDatabaseFile(path, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if replayed := re.RecoveryResult() != nil; replayed == checkpoint {
				t.Fatalf("recovery ran = %v with checkpoint = %v", replayed, checkpoint)
			}
			if _, ok := re.core.Placed(member, 0); ok {
				t.Fatal("retired placement came back with the reopen")
			}
			if got := re.Snapshot().Reclust.Placements; got != res.Objects-1 {
				t.Fatalf("%d placements after reopen, want %d", got, res.Objects-1)
			}
			vals, err := re.RetrievePath("grp", "members", "val", 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if vals[0].Int != 424242 {
				t.Fatalf("reopened database serves %d for the updated member, want 424242", vals[0].Int)
			}
		})
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

	durableMeta := func() string {
		t.Helper()
		res, err := wal.Recover(wal.NewMemDeviceBytes(dev.Crash(0)), func(disk.PageID, []byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return string(res.Meta)
	}
	liveMeta := func() string {
		t.Helper()
		raw, err := subject.metaJSON(subject.core.PlacementBlob())
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if _, err := subject.commit(); err != nil { // the load's metadata, durable
		t.Fatal(err)
	}
	metaBefore, live := durableMeta(), liveMeta()

	dev.FailNextSync()
	if _, err := subject.Reorganize(groups); err == nil {
		t.Fatal("Reorganize over a failing fsync reported success")
	}
	if st := subject.ReclustStats(); st.Placements != 0 || st.Batches != 0 {
		t.Fatalf("failed Reorganize published: %+v", *st)
	}
	if durableMeta() != metaBefore || liveMeta() != live {
		t.Fatal("failed Reorganize changed the metadata a recovery or a checkpoint would write")
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
	// The batch's commit carries its placements: a recovery restores them.
	if durableMeta() != liveMeta() {
		t.Fatal("the durable metadata is not the published placements'")
	}
	testutil.AssertNoLeaks(t, subject.core.Pool)
}

// TestReorganizeFaultAbortsBatch: a member row that cannot be read is
// not a member that is gone. The batch aborts with nothing published and
// nothing marked migrated, and once the page reads again the whole unit
// is placed — not the part that happened to be readable.
func TestReorganizeFaultAbortsBatch(t *testing.T) {
	db, groups := buildScatteredDB(t, 8)
	if err := db.EnableReclustering(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RetrievePath("grp", "members", "val", 1, int64(groups)); err != nil {
		t.Fatal(err)
	}
	// Condemn the leaf holding item 201, the second member of group 1.
	item, err := db.Relation("item")
	if err != nil {
		t.Fatal(err)
	}
	var leaf disk.PageID
	err = item.rel.Tree.ScanLeavesRID(func(rid storage.RID, key int64, _ []byte) (bool, error) {
		leaf = rid.Page
		return key != 201, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ResetCold(); err != nil {
		t.Fatal(err)
	}
	sim := db.core.Disk.(*disk.Sim)
	sim.SetFault(func(op string, id disk.PageID) error {
		if op == "read" && id == leaf {
			return disk.ErrPermanent
		}
		return nil
	})
	if _, err := db.Reorganize(groups); !IsFault(err) {
		t.Fatalf("Reorganize over a condemned member page = %v, want the fault", err)
	}
	if st := db.ReclustStats(); st.Placements != 0 || st.Batches != 0 {
		t.Fatalf("faulted Reorganize published: %+v", *st)
	}
	for _, u := range db.HottestUnits(0) {
		if u.Migrated {
			t.Fatalf("unit %s/%d marked migrated by a faulted batch", u.Relation, u.Key)
		}
	}
	testutil.AssertNoLeaks(t, db.core.Pool)

	sim.SetFault(nil)
	res, err := db.Reorganize(groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != groups || res.Objects != groups*4 {
		t.Fatalf("retry placed %+v, want all %d units whole (%d rows)", res, groups, groups*4)
	}
}

// TestVersionedCachedReclustering is the combination nothing exercised
// (ROADMAP 2c): with versioned serving, the outside cache and adaptive
// clustering all on, a Reorganize publishes its batch as one epoch whose
// cache watermarks cover the moved members, and an Update of a migrated
// member is what the next cached read returns.
func TestVersionedCachedReclustering(t *testing.T) {
	db, groups := buildScatteredDB(t, 64)
	db.EnableVersionedServing()
	if err := db.EnableCache(16); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableReclustering(0, 0); err != nil {
		t.Fatal(err)
	}
	read := func(lo, hi int) []Value {
		t.Helper()
		vals, err := db.RetrievePathCached("grp", "members", "val", int64(lo), int64(hi))
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	want := fmt.Sprint(read(1, groups))
	if db.CachedUnits() != groups {
		t.Fatalf("%d cached units after reading %d groups", db.CachedUnits(), groups)
	}

	commits := db.TxnStats().Commits
	res, err := db.Reorganize(groups)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.TxnStats().Commits; got != commits+1 {
		t.Fatalf("Reorganize published %d epochs, want the batch as one", got-commits)
	}
	epoch := db.core.Versions.Published()
	for oid, e := range db.core.Reclust.Place.Snapshot() {
		if e.Epoch != epoch {
			t.Fatalf("placement of %v stamped epoch %d, batch published %d", oid, e.Epoch, epoch)
		}
	}
	// Every cached unit held a moved member: the watermarks retire them
	// all, for readers at the batch's epoch and before it alike.
	if db.CachedUnits() != 0 || db.CacheStats().Invalidations < int64(groups) {
		t.Fatalf("moved members' units still cached: %d units, %+v", db.CachedUnits(), db.CacheStats())
	}
	if got := fmt.Sprint(read(1, groups)); got != want {
		t.Fatalf("values after Reorganize %v, want %v", got, want)
	}

	item, err := db.Relation("item")
	if err != nil {
		t.Fatal(err)
	}
	if err := item.Update(1, Row{Int(1), Str("updated"), Int(424242)}); err != nil {
		t.Fatal(err)
	}
	if got := read(1, 1)[0].Int; got != 424242 {
		t.Fatalf("cached read after the update of a migrated member sees %d, want 424242", got)
	}
	if st := db.ReclustStats(); st.Placements != res.Objects-1 || st.Dropped != 1 {
		t.Fatalf("update of a migrated member: %+v, want %d placements and 1 dropped", *st, res.Objects-1)
	}
	testutil.AssertNoLeaks(t, db.core.Pool)
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
