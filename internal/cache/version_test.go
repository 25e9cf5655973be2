package cache

import (
	"bytes"
	"testing"

	"corep/internal/object"
)

func newTestCache(t *testing.T, maxUnits int) *Cache {
	t.Helper()
	c, _ := newCache(t, maxUnits)
	return c
}

// TestWatermarkBlocksStaleHit is the core coherence property: once a
// member's update watermark passes the entry's materialization epoch,
// no snapshot may hit it — even snapshots newer than the update.
func TestWatermarkBlocksStaleHit(t *testing.T) {
	c := newTestCache(t, 4)
	u := unit(1, 2, 3)
	if err := c.InsertSnap(u, []byte("v1"), 5); err != nil {
		t.Fatal(err)
	}
	// Snapshot at or past M hits; snapshot before M misses (value is
	// newer than the reader's view).
	if v, ok, _ := c.LookupSnap(u, 5); !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("snap=5 lookup = %q,%v, want v1,true", v, ok)
	}
	if _, ok, _ := c.LookupSnap(u, 9); !ok {
		t.Fatal("snap=9 (M=5, no updates): want hit")
	}
	if _, ok, _ := c.LookupSnap(u, 4); ok {
		t.Fatal("snap=4 < M=5: must miss")
	}

	// A member updates at epoch 7 (> M): dead entry, every snapshot
	// misses from here on.
	c.MarkInvalid([]object.OID{u[1]}, 7)
	for _, snap := range []uint64{5, 7, 8, 100} {
		if _, ok, _ := c.LookupSnap(u, snap); ok {
			t.Fatalf("snap=%d after W=7>M=5: must miss", snap)
		}
	}
	st := c.Stats()
	if st.StaleRejects == 0 {
		t.Fatal("stale lookups not counted")
	}
	// The post-publish sweep reclaims it.
	if _, err := c.Invalidate(u[1]); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("dead entry survived Invalidate")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertSnapRejectsStaleArrival: a value materialized at snapshot S
// must not be cached once a lock-set member's watermark passed S.
func TestInsertSnapRejectsStaleArrival(t *testing.T) {
	c := newTestCache(t, 4)
	u := unit(10, 11)
	c.MarkInvalid([]object.OID{u[0]}, 9)
	if err := c.InsertSnap(u, []byte("old"), 6); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("stale-on-arrival value was cached")
	}
	if got := c.Stats().StaleRejects; got != 1 {
		t.Fatalf("stale rejects = %d, want 1", got)
	}
	// At snap ≥ W the insert is accepted.
	if err := c.InsertSnap(u, []byte("new"), 9); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.LookupSnap(u, 9); !ok || !bytes.Equal(v, []byte("new")) {
		t.Fatalf("lookup after fresh insert = %q,%v", v, ok)
	}
}

// TestInsertSnapKeepsFresherEntry: a slow reader at an old snapshot
// must not replace a newer materialization of the same unit.
func TestInsertSnapKeepsFresherEntry(t *testing.T) {
	c := newTestCache(t, 4)
	u := unit(20, 21)
	if err := c.InsertSnap(u, []byte("new"), 8); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertSnap(u, []byte("old"), 3); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.LookupSnap(u, 8); !ok || !bytes.Equal(v, []byte("new")) {
		t.Fatalf("fresher entry replaced: %q,%v", v, ok)
	}
}

// TestSnapZeroIsHistoricPath: epoch-0 calls must behave exactly like
// the unversioned API — no watermark checks, no StaleRejects — since
// the figure pipeline runs through them.
func TestSnapZeroIsHistoricPath(t *testing.T) {
	c := newTestCache(t, 4)
	u := unit(30, 31)
	// Even with a poisoned watermark, snap=0 ignores it (the serial
	// path never creates watermarks; this only documents the contract).
	c.MarkInvalid([]object.OID{u[0]}, 99)
	if err := c.InsertSnap(u, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.LookupSnap(u, 0); !ok {
		t.Fatal("snap=0 lookup must hit")
	}
	if got := c.Stats().StaleRejects; got != 0 {
		t.Fatalf("snap=0 path counted %d stale rejects", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDropCleansEpochs: eviction and invalidation must clear the
// materialization epoch with the entry (CheckInvariants enforces it).
func TestDropCleansEpochs(t *testing.T) {
	c := newTestCache(t, 1)
	a, b := unit(40), unit(41)
	if err := c.InsertSnap(a, []byte("a"), 2); err != nil {
		t.Fatal(err)
	}
	// Capacity 1: inserting b evicts a.
	if err := c.InsertSnap(b, []byte("b"), 3); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Re-inserting a at a lower epoch must be a fresh entry again.
	if err := c.InsertSnap(a, []byte("a2"), 1); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.LookupSnap(a, 1); !ok || !bytes.Equal(v, []byte("a2")) {
		t.Fatalf("re-insert after evict = %q,%v", v, ok)
	}
}

// TestWatermarkFollowsLockSet: freshness is judged on the entry's lock
// set, not on the key unit the lookup names. A cached procedural result
// is keyed by its query and locked on its result tuples; an update to a
// result tuple must stop every snapshot from hitting it, swept or not.
func TestWatermarkFollowsLockSet(t *testing.T) {
	c := newTestCache(t, 4)
	key, locks := unit(900), unit(1, 2)
	if err := c.InsertSnapWithLocks(key, locks, []byte("rows"), 5); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.LookupSnap(key, 6); !ok {
		t.Fatal("snap=6, no updates: want hit")
	}
	c.MarkInvalid([]object.OID{locks[1]}, 7)
	if _, ok, _ := c.LookupSnap(key, 8); ok {
		t.Fatal("a result tuple updated at 7 > M=5: must miss before the sweep runs")
	}
}
