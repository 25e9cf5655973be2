package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/reclust"
	"corep/internal/storage"
	"corep/internal/testutil"
	"corep/internal/wal"
)

// newCore builds a core over a fresh simulated disk; logged attaches a
// log over the returned in-memory device.
func newCore(t *testing.T, frames int, logged bool) (*Core, *wal.MemDevice) {
	t.Helper()
	d := disk.NewSim()
	c := New(d, buffer.New(d, frames))
	if !logged {
		return c, nil
	}
	dev := wal.NewMemDevice(0)
	l, err := wal.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	c.AttachLog(l)
	return c, dev
}

// dirtyPages allocates n fresh pages and leaves them dirty in the pool.
func dirtyPages(t *testing.T, c *Core, n int) []disk.PageID {
	t.Helper()
	ids := make([]disk.PageID, n)
	for i := range ids {
		id, buf, err := c.Pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		storage.Page{Buf: buf}.Init(storage.TypeHeap)
		c.Pool.Unpin(id, true)
		ids[i] = id
	}
	return ids
}

// Record type bytes of the log format (wal/wal.go's header comment).
const (
	recPage   = 1
	recCommit = 2
	recMeta   = 3
)

// recordTypes walks the raw log image and returns each record's type,
// relying on the documented 24-byte header: payload length at [4:8),
// type at [16].
func recordTypes(img []byte) []byte {
	var out []byte
	for off := 0; off+24 <= len(img); {
		out = append(out, img[off+16])
		off += 24 + int(binary.LittleEndian.Uint32(img[off+4:]))
	}
	return out
}

func recoverImage(t *testing.T, img []byte) *wal.Result {
	t.Helper()
	res, err := wal.Recover(wal.NewMemDeviceBytes(img), func(disk.PageID, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCommitContract is the one statement of the commit protocol's
// return contract and record order, for both engines: page images,
// then the optional metadata, then the commit record; a sequence number
// even when the sync fails; nothing at all without a log.
func TestCommitContract(t *testing.T) {
	meta := []byte("sidecar-v1")
	for _, tc := range []struct {
		name     string
		logged   bool
		meta     []byte
		failSync bool
		order    []byte
	}{
		{name: "clean", logged: true, order: []byte{recPage, recPage, recCommit}},
		{name: "with-meta", logged: true, meta: meta, order: []byte{recPage, recPage, recMeta, recCommit}},
		{name: "failed-sync", logged: true, failSync: true, order: []byte{recPage, recPage, recCommit}},
		{name: "no-log"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, dev := newCore(t, 16, tc.logged)
			dirtyPages(t, c, 2)
			if tc.failSync {
				dev.FailNextSync()
			}
			seq, err := c.Commit(tc.meta)
			if !tc.logged {
				if seq != 0 || err != nil {
					t.Fatalf("Commit without a log = %d, %v; want 0, nil", seq, err)
				}
				return
			}
			if seq != 1 {
				t.Fatalf("seq = %d, want 1 (the appended record's number, sync outcome regardless)", seq)
			}
			full := dev.Crash(dev.Unsynced())
			if got := recordTypes(full); !bytes.Equal(got, tc.order) {
				t.Fatalf("record order %v, want %v", got, tc.order)
			}
			if c.Pool.UnloggedCount() != 0 {
				t.Fatalf("%d frames still unlogged after the capture", c.Pool.UnloggedCount())
			}
			if !tc.failSync {
				if err != nil {
					t.Fatal(err)
				}
				res := recoverImage(t, dev.Crash(0))
				if len(res.Commits) != 1 || res.Commits[0] != seq || res.Replayed != 2 {
					t.Fatalf("recovery of a clean commit: %+v", res)
				}
				if !bytes.Equal(res.Meta, tc.meta) {
					t.Fatalf("recovered meta %q, want %q", res.Meta, tc.meta)
				}
				return
			}
			// In doubt: appended, not durable. The synced prefix knows
			// nothing of it; the full tail replays it under the number
			// the caller was handed.
			if !errors.Is(err, wal.ErrSyncFailed) {
				t.Fatalf("err = %v, want the injected sync failure", err)
			}
			if res := recoverImage(t, dev.Crash(0)); len(res.Commits) != 0 || res.Replayed != 0 {
				t.Fatalf("synced prefix replayed an unsynced commit: %+v", res)
			}
			if res := recoverImage(t, full); len(res.Commits) != 1 || res.Commits[0] != seq {
				t.Fatalf("full tail lost the in-doubt commit: %+v", res)
			}
		})
	}
}

// TestRelieveThreshold: the pressure valve captures only once the
// unlogged backlog reaches a quarter of the pool, floored at one frame
// (a 3-frame pool must not capture on every call), appends no commit
// record, and recovery discards what it captured if no commit follows.
func TestRelieveThreshold(t *testing.T) {
	for _, tc := range []struct{ frames, limit int }{{3, 1}, {8, 2}, {16, 4}} {
		c, dev := newCore(t, tc.frames, true)
		for n := 0; n < tc.limit; n++ {
			if err := c.Relieve(); err != nil {
				t.Fatal(err)
			}
			if imgs := c.Log().Stats().PageImages; imgs != 0 {
				t.Fatalf("%d frames: captured %d images with %d unlogged (limit %d)", tc.frames, imgs, n, tc.limit)
			}
			dirtyPages(t, c, 1)
		}
		if err := c.Relieve(); err != nil {
			t.Fatal(err)
		}
		st := c.Log().Stats()
		if st.PageImages != int64(tc.limit) || st.Commits != 0 || st.Fsyncs != 0 {
			t.Fatalf("%d frames at the limit: %+v, want %d images, no commit, no fsync", tc.frames, st, tc.limit)
		}
		res := recoverImage(t, dev.Crash(dev.Unsynced()))
		if res.Replayed != 0 || res.DiscardedRecords != tc.limit {
			t.Fatalf("relieved images without a commit: %+v, want all %d discarded", res, tc.limit)
		}
	}
	c, _ := newCore(t, 3, false)
	dirtyPages(t, c, 2)
	if err := c.Relieve(); err != nil {
		t.Fatalf("Relieve without a log: %v", err)
	}
}

// TestPublishOrdering: install and the cache watermarks land inside the
// commit critical section — before the epoch is visible — and the
// unversioned fallback installs at epoch 0 and still sweeps.
func TestPublishOrdering(t *testing.T) {
	oid := object.NewOID(1, 7)
	unit := object.Unit{oid}
	for _, versioned := range []bool{true, false} {
		c, _ := newCore(t, 32, false)
		if versioned {
			c.EnableVersioning()
		}
		if err := c.NewCache(8, 16, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.Cache.Insert(unit, []byte("old")); err != nil {
			t.Fatal(err)
		}
		var before, installed, visibleInside uint64
		if versioned {
			before = c.Versions.Stats().Published
		}
		err := c.Publish(c.BeginUpdate(unit), unit, func(e uint64) {
			installed = e
			if versioned {
				visibleInside = c.Versions.Stats().Published
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if versioned {
			if installed != before+1 || visibleInside != before || c.Versions.Stats().Published != installed {
				t.Fatalf("install saw epoch %d with %d visible; before %d, after %d",
					installed, visibleInside, before, c.Versions.Stats().Published)
			}
		} else if installed != 0 {
			t.Fatalf("unversioned install at epoch %d, want 0", installed)
		}
		if _, ok, err := c.Cache.LookupSnap(unit, installed); err != nil || ok {
			t.Fatalf("versioned=%v: invalidated unit still served (ok=%v, err=%v)", versioned, ok, err)
		}
		if st := c.Cache.Stats(); st.Invalidations == 0 {
			t.Fatalf("versioned=%v: sweep did not run: %+v", versioned, st)
		}
		testutil.AssertNoLeaks(t, c.Pool)
	}
}

// TestFailedCommitPublishesNothing spells out the protocol every caller
// follows — mutate, Commit, then Publish — on the failing branch: the
// epoch, the cache watermarks and the placement map all stay where they
// were, so the in-doubt mutation is invisible.
func TestFailedCommitPublishesNothing(t *testing.T) {
	c, dev := newCore(t, 32, true)
	c.EnableVersioning()
	if err := c.NewCache(8, 16, 1); err != nil {
		t.Fatal(err)
	}
	oid := object.NewOID(1, 7)
	unit := object.Unit{oid}
	if err := c.Cache.Insert(unit, []byte("old")); err != nil {
		t.Fatal(err)
	}
	place := reclust.NewMap()
	epoch := c.Versions.Stats().Published

	u := c.BeginUpdate(unit)
	rid, err := c.appendPlaced([]byte("copy"))
	if err != nil {
		t.Fatal(err)
	}
	dev.FailNextSync()
	if seq, err := c.Commit(nil); err == nil || seq == 0 {
		t.Fatalf("Commit = %d, %v; want an in-doubt sequence number and an error", seq, err)
	}
	u.Abort() // what every caller does instead of Publish

	if got := c.Versions.Stats().Published; got != epoch {
		t.Fatalf("epoch moved %d → %d on a failed commit", epoch, got)
	}
	snap := c.Versions.Begin()
	defer snap.Release()
	if _, ok, err := c.Cache.LookupSnap(unit, snap.Epoch()); err != nil || !ok {
		t.Fatalf("cached unit lost without a publish (ok=%v, err=%v)", ok, err)
	}
	if place.Len() != 0 {
		t.Fatalf("%d placements published", place.Len())
	}
	// The orphan extent row is still readable — copy forwarding never
	// depends on the publish — it is just unreferenced.
	if rec, err := c.ReadPlaced(rid); err != nil || string(rec) != "copy" {
		t.Fatalf("orphan row = %q, %v", rec, err)
	}
}

// fakeUnits is an Enumerator over rows held in a map: unit k is rows
// 10k..10k+2 of relation 1, hot in descending k.
type fakeUnits struct {
	rows   map[object.OID][]byte
	failOn object.OID // Row fails here, if non-zero
}

func newFakeUnits(c *Core, units int) *fakeUnits {
	f := &fakeUnits{rows: map[object.OID][]byte{}}
	for k := 1; k <= units; k++ {
		for _, oid := range f.unit(int64(k)) {
			f.rows[oid] = []byte{byte(oid.Key()), 0xCD}
		}
		c.Reclust.Heat.Touch(int64(k), float64(k))
	}
	return f
}

func (f *fakeUnits) unit(k int64) []object.OID {
	return []object.OID{object.NewOID(1, 10*k), object.NewOID(1, 10*k+1), object.NewOID(1, 10*k+2)}
}

var errRowUnreadable = errors.New("row unreadable")

func (f *fakeUnits) enumerator() Enumerator {
	return Enumerator{
		Unit: func(k int64) ([]object.OID, error) { return f.unit(k), nil },
		Row: func(_ int64, oid object.OID) ([]byte, error) {
			if oid == f.failOn {
				return nil, errRowUnreadable
			}
			return f.rows[oid], nil
		},
	}
}

// TestMigrate is the one statement of the batch protocol, for both front
// ends: plan → copy → Commit(placements) → Publish, nothing published
// and nothing migrated on any failure, placements stamped with the
// batch's epoch, and a recovery restores the last committed map.
func TestMigrate(t *testing.T) {
	for _, tc := range []struct {
		name             string
		logged, version  bool
		failSync, failAt bool
	}{
		{name: "clean"},
		{name: "clean-logged", logged: true},
		{name: "failed-commit", logged: true, failSync: true},
		{name: "failed-copy", logged: true, failAt: true},
		{name: "versioned", logged: true, version: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, dev := newCore(t, 32, tc.logged)
			if _, err := c.Migrate(2, Enumerator{}); !errors.Is(err, ErrReclustOff) {
				t.Fatalf("Migrate before InitReclust: %v", err)
			}
			if err := c.InitReclust(0, 0); err != nil {
				t.Fatal(err)
			}
			if tc.version {
				c.EnableVersioning()
			}
			f := newFakeUnits(c, 3)
			if tc.failSync {
				dev.FailNextSync()
			}
			if tc.failAt {
				f.failOn = f.unit(2)[1] // after four rows were copied
			}
			res, err := c.Migrate(2, f.enumerator())
			if tc.failSync || tc.failAt {
				if err == nil || (tc.failAt && !errors.Is(err, errRowUnreadable)) {
					t.Fatalf("Migrate = %+v, %v; want the injected failure", res, err)
				}
				st := *c.ReclustStats()
				if st.Placements != 0 || st.Batches != 0 || st.Migrated != 0 || res.Objects != 0 {
					t.Fatalf("failed batch published: %+v, %+v", st, res)
				}
				if tc.failAt && st.Dropped != 4 {
					t.Fatalf("%d orphans counted, want the 4 rows copied before the failure", st.Dropped)
				}
				if hot := c.HotUnits(-1); len(hot) != 3 || hot[0].Migrated {
					t.Fatalf("failed batch marked units migrated: %+v", hot)
				}
				f.failOn = 0
				if res, err = c.Migrate(2, f.enumerator()); err != nil {
					t.Fatalf("retry: %v", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}

			// The two hottest units, whole, hottest first.
			if len(res.Units) != 2 || res.Units[0].Owner != 3 || res.Units[1].Owner != 2 || res.Objects != 6 || res.Pages != 1 {
				t.Fatalf("batch = %+v, want units 3 and 2 on one page", res)
			}
			var epoch uint64
			if tc.version {
				epoch = c.Versions.Stats().Published
			}
			for _, u := range res.Units {
				for _, oid := range u.OIDs {
					e, ok := c.Reclust.Place.Latest(oid)
					if !ok || e.Owner != u.Owner || e.Epoch != epoch {
						t.Fatalf("placement of %v = %+v (%v), want owner %d at epoch %d", oid, e, ok, u.Owner, epoch)
					}
					if _, early := c.Placed(oid, epoch-1); tc.version && early {
						t.Fatalf("a snapshot before the batch sees %v placed", oid)
					}
					if rec, err := c.ReadPlaced(e.RID); err != nil || !bytes.Equal(rec, f.rows[oid]) {
						t.Fatalf("copy of %v = %v, %v", oid, rec, err)
					}
				}
			}
			if st := *c.ReclustStats(); st.Placements != 6 || st.Batches != 1 || st.Migrated != 6 || st.PagesDirty != 1 {
				t.Fatalf("stats after one batch: %+v", st)
			}
			if hot := c.HotUnits(2); !hot[0].Migrated || !hot[1].Migrated {
				t.Fatalf("migrated units not marked: %+v", hot)
			}

			// Migrated is the map's answer: the next batch takes what is
			// left, a retired row makes its unit worth a visit again, and
			// then there is nothing to do.
			c.Retire(f.unit(3)[0])
			if res, err = c.Migrate(4, f.enumerator()); err != nil || res.Objects != 4 || len(res.Units) != 2 {
				t.Fatalf("second batch = %+v, %v; want unit 1 and the retired row of unit 3", res, err)
			}
			if res, err = c.Migrate(4, f.enumerator()); err != nil || res.Objects != 0 || res.Units != nil {
				t.Fatalf("third batch = %+v, %v; want nothing", res, err)
			}
			testutil.AssertNoLeaks(t, c.Pool)
			if !tc.logged {
				return
			}

			// A batch left in doubt, then the crash: what comes back is
			// the last committed map, on a core that never enabled
			// reclustering too.
			committed := c.Reclust.Place.Snapshot()
			c.Retire(f.unit(1)...)
			dev.FailNextSync()
			if _, err := c.Migrate(4, f.enumerator()); err == nil {
				t.Fatal("in-doubt batch reported success")
			}
			meta := recoverImage(t, dev.Crash(0)).Meta
			for _, into := range []*Core{c, New(c.Disk, c.Pool)} {
				if err := into.RestorePlacements(meta); err != nil {
					t.Fatal(err)
				}
				if got := into.Reclust.Place.Snapshot(); len(got) != len(committed) {
					t.Fatalf("restored %d placements, committed %d", len(got), len(committed))
				}
				for oid, want := range committed {
					if rid, ok := into.Placed(oid, 0); !ok || rid != want.RID {
						t.Fatalf("restored placement of %v = %v (%v), want %v", oid, rid, ok, want.RID)
					}
				}
			}
		})
	}
}

// TestPlacementBlobIsKept: the encoding a front end folds into its own
// metadata is made once per change of the map, and a core serving
// restored placements accepts one InitReclust.
func TestPlacementBlobIsKept(t *testing.T) {
	c, _ := newCore(t, 32, true)
	if c.PlacementBlob() != nil || c.ReclustStats() != nil {
		t.Fatal("placements on a core without reclustering")
	}
	if err := c.InitReclust(0, 0); err != nil {
		t.Fatal(err)
	}
	f := newFakeUnits(c, 2)
	if _, err := c.Migrate(2, f.enumerator()); err != nil {
		t.Fatal(err)
	}
	n := c.Reclust.Encodes()
	blob := c.PlacementBlob()
	if got, _ := reclust.DecodePlacements(blob); len(got) != 6 || c.Reclust.Encodes() != n {
		t.Fatalf("blob after the batch holds %d placements, %d new encodings; want the batch's own", len(got), c.Reclust.Encodes()-n)
	}
	c.Retire(object.NewOID(9, 9)) // places nothing: no change
	if c.PlacementBlob(); c.Reclust.Encodes() != n {
		t.Fatal("an unchanged map was encoded again")
	}
	c.Retire(f.unit(1)[0])
	if got, _ := reclust.DecodePlacements(c.PlacementBlob()); len(got) != 5 || c.Reclust.Encodes() != n+1 {
		t.Fatalf("blob after a retire: %d placements, %d encodings", len(got), c.Reclust.Encodes()-n)
	}

	fresh := New(c.Disk, c.Pool)
	if err := fresh.RestorePlacements(blob); err != nil {
		t.Fatal(err)
	}
	if err := fresh.InitReclust(8, 0); err != nil || fresh.Reclust.Heat.Cap() != 8 {
		t.Fatalf("InitReclust over restored placements: %v", err)
	}
	if err := fresh.InitReclust(8, 0); err == nil {
		t.Fatal("second InitReclust succeeded")
	}
	if fresh.Placements() != 6 {
		t.Fatalf("InitReclust lost the restored placements: %d", fresh.Placements())
	}
}

// TestReadPlacedConcurrentAppend: a batch appends to the very tail page
// whose published rows readers are fetching. Run under -race: both
// sides touch the page header and slot directory.
func TestReadPlacedConcurrentAppend(t *testing.T) {
	c, _ := newCore(t, 16, false)
	const rows = 400
	var (
		mu   sync.Mutex
		rids []storage.RID
		wg   sync.WaitGroup
	)
	want := func(i int) []byte { return []byte{byte(i), byte(i >> 8), 0xAB} }
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rows; i++ {
			rid, err := c.appendPlaced(want(i))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			rids = append(rids, rid)
			mu.Unlock()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rows; {
				mu.Lock()
				n = len(rids)
				var rid storage.RID
				if n > 0 {
					rid = rids[n-1]
				}
				mu.Unlock()
				if n == 0 {
					continue
				}
				rec, err := c.ReadPlaced(rid)
				if err != nil || !bytes.Equal(rec, want(n-1)) {
					t.Errorf("row %d = %v, %v", n-1, rec, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.RewritePlaced(rids[0], want(9999)); err != nil {
		t.Fatal(err)
	}
	if rec, _ := c.ReadPlaced(rids[0]); !bytes.Equal(rec, want(9999)) {
		t.Fatalf("rewritten row = %v", rec)
	}
	testutil.AssertNoLeaks(t, c.Pool)
}

// TestResetColdUnderTheGate: with a log attached ResetCold captures
// before it flushes (unlogged frames would refuse the flush), and the
// counters come back zeroed either way.
func TestResetColdUnderTheGate(t *testing.T) {
	for _, logged := range []bool{false, true} {
		c, _ := newCore(t, 8, logged)
		dirtyPages(t, c, 3)
		if err := c.ResetCold(); err != nil {
			t.Fatalf("logged=%v: %v", logged, err)
		}
		if io := c.IOSnapshot(); io.Reads != 0 || io.Writes != 0 || c.Pool.Resident() != 0 {
			t.Fatalf("logged=%v: not cold: %+v, %d resident", logged, io, c.Pool.Resident())
		}
	}
}
