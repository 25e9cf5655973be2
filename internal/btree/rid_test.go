package btree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/storage"
)

func TestScanLeavesRIDCoversAll(t *testing.T) {
	tr, _ := newTree(t, 64)
	const n = 1500
	for i := int64(0); i < n; i++ {
		if err := tr.Insert(i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	var keys []int64
	rids := map[storage.RID]bool{}
	err := tr.ScanLeavesRID(func(rid storage.RID, key int64, p []byte) (bool, error) {
		if rids[rid] {
			t.Fatalf("duplicate RID %v", rid)
		}
		rids[rid] = true
		keys = append(keys, key)
		if !bytes.Equal(p, payload(key)) {
			t.Fatalf("payload mismatch at key %d", key)
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("scanned %d, want %d", len(keys), n)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatal("RID scan out of key order")
		}
	}
}

// TestScanLeavesRIDEarlyStop: fn runs under the pin of its entry's leaf
// and no other, and stopping early, failing or finishing releases it.
func TestScanLeavesRIDEarlyStop(t *testing.T) {
	tr, pool := newTree(t, 32)
	for i := int64(0); i < 100; i++ {
		_ = tr.Insert(i, payload(i))
	}
	n := 0
	err := tr.ScanLeavesRID(func(storage.RID, int64, []byte) (bool, error) {
		if pool.PinnedCount() != 1 {
			t.Fatalf("%d pages pinned inside fn, want its leaf only", pool.PinnedCount())
		}
		n++
		return n < 7, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("visited %d", n)
	}
	stop := errors.New("stop")
	if err := tr.ScanLeavesRID(func(_ storage.RID, key int64, _ []byte) (bool, error) {
		if key == 50 {
			return false, stop
		}
		return true, nil
	}); !errors.Is(err, stop) {
		t.Fatalf("ScanLeavesRID returned %v, want fn's error", err)
	}
	if err := tr.ScanLeavesRID(func(storage.RID, int64, []byte) (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	if pool.PinnedCount() != 0 {
		t.Fatalf("leaked pins: %d", pool.PinnedCount())
	}
}

func TestViewAtAndPatchAt(t *testing.T) {
	tr, pool := newTree(t, 64)
	const n = 800
	for i := int64(0); i < n; i++ {
		if err := tr.Insert(i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	var locs []storage.RID
	var keys []int64
	err := tr.ScanLeavesRID(func(rid storage.RID, key int64, _ []byte) (bool, error) {
		locs = append(locs, rid)
		keys = append(keys, key)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Random access through RIDs matches the keyed view.
	for i := 0; i < len(locs); i += 37 {
		err := tr.ViewAt(locs[i], func(p []byte) error {
			if !bytes.Equal(p, payload(keys[i])) {
				return fmt.Errorf("ViewAt(%v) = %q, want key %d's", locs[i], p, keys[i])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Same-size in-place patch through a RID is visible via Get.
	idx := 123
	newPayload := []byte(fmt.Sprintf("payload-%d", keys[idx])) // same length
	copy(newPayload, "PAYLOAD")
	if err := tr.PatchAt(locs[idx], func(p []byte) error { copy(p, newPayload); return nil }); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(keys[idx])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newPayload) {
		t.Fatalf("got %q", got)
	}
	// RIDs of other entries remain valid after the in-place patch.
	if err := tr.ViewAt(locs[idx+1], func(p []byte) error {
		if !bytes.Equal(p, payload(keys[idx+1])) {
			return fmt.Errorf("neighbor RID now holds %q", p)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if pool.PinnedCount() != 0 {
		t.Fatalf("leaked pins: %d", pool.PinnedCount())
	}
}

func TestViewAtBadSlot(t *testing.T) {
	tr, _ := newTree(t, 16)
	_ = tr.Insert(1, payload(1))
	if err := tr.ViewAt(storage.RID{Page: tr.root, Slot: 99}, func([]byte) error { return nil }); err == nil {
		t.Fatal("bogus slot accepted")
	}
	if err := tr.PatchAt(storage.RID{Page: tr.root, Slot: 99}, func([]byte) error { return nil }); err == nil {
		t.Fatal("bogus slot accepted")
	}
}

// TestPatchWritesOnlyOnSuccess: Patch and PatchAt change the record in
// place and leave the leaf dirty when fn succeeds; when fn fails the
// error comes back as is and the leaf is released clean, so nothing
// reaches the disk. A missing key is ErrNotFound. No pin outlives a call.
func TestPatchWritesOnlyOnSuccess(t *testing.T) {
	d := disk.NewSim()
	pool := buffer.New(d, 64)
	tr, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	for i := int64(0); i < n; i++ {
		if err := tr.Insert(i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	var rid storage.RID
	if err := tr.ScanLeavesRID(func(r storage.RID, key int64, _ []byte) (bool, error) {
		rid = r
		return key < 400, nil
	}); err != nil {
		t.Fatal(err)
	}
	flushed := func() int64 {
		t.Helper()
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return pool.Stats().Flushes
	}
	stop := errors.New("refused")
	refuse := func(p []byte) error { return stop }
	base := flushed()
	if err := tr.Patch(300, refuse); !errors.Is(err, stop) {
		t.Fatalf("Patch returned %v, want fn's error", err)
	}
	if err := tr.PatchAt(rid, refuse); !errors.Is(err, stop) {
		t.Fatalf("PatchAt returned %v, want fn's error", err)
	}
	if got := flushed(); got != base {
		t.Fatalf("a refused patch dirtied %d pages", got-base)
	}
	if err := tr.Patch(n+5, refuse); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Patch of a missing key returned %v", err)
	}
	up := func(p []byte) error { p[0] = 'P'; return nil }
	if err := tr.Patch(300, up); err != nil {
		t.Fatal(err)
	}
	if err := tr.PatchAt(rid, up); err != nil {
		t.Fatal(err)
	}
	if got := flushed(); got != base+2 {
		t.Fatalf("two patches on two leaves flushed %d pages", got-base)
	}
	for _, k := range []int64{300, 400} {
		got, err := tr.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		want := payload(k)
		want[0] = 'P'
		if !bytes.Equal(got, want) {
			t.Fatalf("key %d holds %q, want %q", k, got, want)
		}
	}
	if pool.PinnedCount() != 0 {
		t.Fatalf("leaked pins: %d", pool.PinnedCount())
	}
}

func TestLeafPagesCounter(t *testing.T) {
	d := disk.NewSim()
	pool := buffer.New(d, 64)
	tr, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	if tr.LeafPages() != 1 {
		t.Fatalf("empty tree leaves = %d", tr.LeafPages())
	}
	pad := bytes.Repeat([]byte("x"), 90)
	const n = 2000
	for i := int64(0); i < n; i++ {
		if err := tr.Insert(i, pad); err != nil {
			t.Fatal(err)
		}
	}
	// Count actual leaves via the chain and compare.
	actual := 0
	prev := int64(-1)
	err = tr.ScanLeavesRID(func(rid storage.RID, key int64, _ []byte) (bool, error) {
		if int64(rid.Page) != prev {
			actual++
			prev = int64(rid.Page)
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.LeafPages() != actual {
		t.Fatalf("LeafPages = %d, actual = %d", tr.LeafPages(), actual)
	}
}
