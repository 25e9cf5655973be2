package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/storage"
	"corep/internal/testutil"
)

// cursorTree builds a multi-leaf tree of n keys over a small pool.
func cursorTree(t *testing.T, n int64) (*Tree, *buffer.Pool) {
	t.Helper()
	tr, pool := newTree(t, 8)
	for k := int64(0); k < n; k++ {
		if err := tr.Insert(k, payload(k)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.LeafPages() < 4 {
		t.Fatalf("want a multi-leaf tree, got %d leaves", tr.LeafPages())
	}
	testutil.AssertNoLeaks(t, pool)
	return tr, pool
}

func TestCursorHoldsOneLeafAndViewIsStable(t *testing.T) {
	tr, pool := cursorTree(t, 500)
	it, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	if pool.PinnedCount() != 0 {
		t.Fatal("SeekFirst must not pin the leaf before the first Next")
	}
	var n int64
	for ; ; n++ {
		k, view, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if pool.PinnedCount() != 1 {
			t.Fatalf("key %d: cursor holds %d pages, want exactly 1", k, pool.PinnedCount())
		}
		// The view stays valid — and unchanged — across unrelated pool
		// traffic until the next Next: here a probe of a far-away key,
		// which on this 8-frame pool evicts other pages.
		want := append([]byte(nil), view...)
		if _, err := tr.Get((k + 250) % 500); err != nil {
			t.Fatal(err)
		}
		if k != n || !bytes.Equal(view, want) || !bytes.Equal(view, payload(k)) {
			t.Fatalf("key %d (want %d): view %q changed under the cursor", k, n, view)
		}
	}
	if n != 500 {
		t.Fatalf("walked %d entries", n)
	}
	// Exhaustion releases the last leaf without a Close.
	testutil.AssertNoLeaks(t, pool)
	it.Close()
	it.Close()
	testutil.AssertNoLeaks(t, pool)
	if _, _, ok, err := it.Next(); ok || err != nil {
		t.Fatalf("Next after Close: ok=%v err=%v", ok, err)
	}
	// A plain walk costs one pin per leaf, not one per entry.
	before := pool.Stats().Pins
	if n, err := tr.Len(); err != nil || n != 500 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	descent := int64(tr.Height() - 1)
	if pins := pool.Stats().Pins - before - descent; pins != int64(tr.LeafPages()) {
		t.Fatalf("walk took %d pins over %d leaves", pins, tr.LeafPages())
	}
}

func TestCursorCloseReleases(t *testing.T) {
	tr, pool := cursorTree(t, 500)

	// Mid-walk Close, and a second Close.
	it, err := tr.SeekGE(123)
	if err != nil {
		t.Fatal(err)
	}
	if pool.PinnedCount() != 1 {
		t.Fatalf("SeekGE holds %d pages, want its positioned leaf", pool.PinnedCount())
	}
	if k, _, ok, err := it.Next(); err != nil || !ok || k != 123 {
		t.Fatalf("first entry %d ok=%v err=%v", k, ok, err)
	}
	it.Close()
	testutil.AssertNoLeaks(t, pool)
	it.Close()
	testutil.AssertNoLeaks(t, pool)

	// Close straight after a seek, never having called Next.
	if it, err = tr.SeekGE(400); err != nil {
		t.Fatal(err)
	}
	it.Close()
	testutil.AssertNoLeaks(t, pool)

	// A seek past the last key exhausts on the first Next.
	if it, err = tr.SeekGE(10_000); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := it.Next(); ok {
		t.Fatal("entry past the end")
	}
	testutil.AssertNoLeaks(t, pool)
}

func TestRangeReleasesOnEveryExit(t *testing.T) {
	tr, pool := cursorTree(t, 500)
	boom := errors.New("boom")
	cases := map[string]func(k int64) (bool, error){
		"exhausted":      func(int64) (bool, error) { return true, nil },
		"callback false": func(k int64) (bool, error) { return k < 130, nil },
		"callback error": func(k int64) (bool, error) {
			if k == 130 {
				return false, boom
			}
			return true, nil
		},
	}
	for name, fn := range cases {
		err := tr.Range(100, 499, func(k int64, _ []byte) (bool, error) { return fn(k) })
		if name == "callback error" != errors.Is(err, boom) {
			t.Fatalf("%s: err = %v", name, err)
		}
		if n := pool.PinnedCount(); n != 0 {
			t.Fatalf("%s: Range leaked %d pins", name, n)
		}
	}
	// A bounded range stops inside a leaf: the leaf is still released.
	if err := tr.Range(10, 12, func(int64, []byte) (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	testutil.AssertNoLeaks(t, pool)
}

func TestGetIsOneLeafPinAndOwnsItsBytes(t *testing.T) {
	tr, pool := cursorTree(t, 500)
	// (A key that opens a leaf sorts before its own separator and costs
	// one more pin for the hop; 321 is not one.)
	before := pool.Stats().Pins
	got, err := tr.Get(321)
	if err != nil {
		t.Fatal(err)
	}
	if pins := pool.Stats().Pins - before; pins != int64(tr.Height()) {
		t.Fatalf("Get took %d pins on a tree of height %d: want the descent plus one leaf pin", pins, tr.Height())
	}
	testutil.AssertNoLeaks(t, pool)
	// The result is the caller's: rewriting the entry in place must not
	// show through it.
	if err := tr.Update(321, bytes.Repeat([]byte{'x'}, len(got))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(321)) {
		t.Fatalf("Get result aliases the page: %q", got)
	}
	if _, err := tr.Get(100_000); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	testutil.AssertNoLeaks(t, pool)
}

// TestCursorSurvivesPinFailure: when the successor leaf cannot be pinned
// the cursor reports the error holding nothing, and the walk resumes
// once frames are free again.
func TestCursorSurvivesPinFailure(t *testing.T) {
	d := disk.NewSim()
	pool := buffer.New(d, 2)
	tr, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 200; k++ {
		if err := tr.Insert(k, payload(k)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	// Two foreign pins fill the pool: the cursor's first Next must fail.
	var held []disk.PageID
	for len(held) < 2 {
		id, _, err := pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, id)
	}
	if _, _, _, err := it.Next(); err == nil {
		t.Fatal("Next succeeded with every frame pinned")
	}
	if pool.PinnedCount() != 2 {
		t.Fatalf("failed Next left %d pins, want only the 2 foreign ones", pool.PinnedCount())
	}
	for _, id := range held {
		pool.Unpin(id, false)
	}
	if k, _, ok, err := it.Next(); err != nil || !ok || k != 0 {
		t.Fatalf("resumed walk: key %d ok=%v err=%v", k, ok, err)
	}
}

// repackedTree builds, the same way on every call, a tree of random keys
// with duplicates over a 6-frame pool, then grows a third of the entries
// by Update so leaves are compacted and entries re-inserted (a grown
// duplicate moves to the back of its run). Payloads are unique.
func repackedTree(t *testing.T) (*Tree, *buffer.Pool, *disk.Sim) {
	t.Helper()
	d := disk.NewSim()
	pool := buffer.New(d, 6)
	tr, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var keys []int64
	for i := 0; i < 1500; i++ {
		k := rng.Int63n(2000)
		if i%10 == 0 && len(keys) > 0 {
			k = keys[rng.Intn(len(keys))] // a duplicate
		}
		keys = append(keys, k)
		if err := tr.Insert(k, []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		k := keys[rng.Intn(len(keys))]
		if err := tr.Update(k, []byte(fmt.Sprintf("grown-%d-%040d", i, k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	testutil.AssertNoLeaks(t, pool)
	return tr, pool, d
}

// TestNextGEIsARunOfNext: NextGE(k) lands on the entry a run of Next
// calls stops at — the first from the cursor on with key ≥ k, or the
// very next entry when k is no larger — and costs exactly what that run
// costs: the same leaves pinned, in the same order, once each, so the
// pool's and the disk's counters agree after every step.
func TestNextGEIsARunOfNext(t *testing.T) {
	seek, seekPool, seekDisk := repackedTree(t)
	walk, walkPool, walkDisk := repackedTree(t)
	itS, err := seek.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	defer itS.Close()
	itW, err := walk.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	defer itW.Close()
	rng := rand.New(rand.NewSource(3))
	for target, steps := int64(-50), 0; ; steps++ {
		target += rng.Int63n(60) - 10
		ks, ps, oks, err := itS.NextGE(target)
		if err != nil {
			t.Fatal(err)
		}
		kw, pw, okw := int64(0), []byte(nil), false
		for {
			if kw, pw, okw, err = itW.Next(); err != nil {
				t.Fatal(err)
			}
			if !okw || kw >= target {
				break
			}
		}
		if oks != okw || ks != kw || !bytes.Equal(ps, pw) {
			t.Fatalf("step %d, NextGE(%d) = %d %q ok=%v, Next walk = %d %q ok=%v", steps, target, ks, ps, oks, kw, pw, okw)
		}
		if s, w := seekPool.Stats(), walkPool.Stats(); s != w {
			t.Fatalf("step %d, NextGE(%d): pool %+v, Next walk %+v", steps, target, s, w)
		}
		if s, w := seekDisk.Stats(), walkDisk.Stats(); s != w {
			t.Fatalf("step %d, NextGE(%d): disk %+v, Next walk %+v", steps, target, s, w)
		}
		if !oks {
			break
		}
		if n := seekPool.PinnedCount(); n != 1 {
			t.Fatalf("step %d: NextGE holds %d pages", steps, n)
		}
	}
	testutil.AssertNoLeaks(t, seekPool)
	if _, _, ok, err := itS.NextGE(0); ok || err != nil {
		t.Fatalf("NextGE after exhaustion: ok=%v err=%v", ok, err)
	}
}

// TestCorruptLeafSlotIsAnError: a leaf whose slots cannot be read fails
// every search of it — SeekGE, Get, Update, Insert, GetBatch and NextGE —
// with the slot's error, as Next fails on it, and holds no pin after.
func TestCorruptLeafSlotIsAnError(t *testing.T) {
	tr, pool := cursorTree(t, 500)
	const key = 250
	leaf, err := tr.descendToLeaf(entryRef{key, 0})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := pool.Pin(leaf)
	if err != nil {
		t.Fatal(err)
	}
	// Kill every slot but the last: a binary search of the leaf meets a
	// dead slot at its first probe, while its last key still reads.
	pg := storage.Page{Buf: buf}
	for i := 0; i < pg.NumSlots()-1; i++ {
		if err := pg.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	pool.Unpin(leaf, true)

	keys := make([]int64, buffer.BatchSortMin)
	for i := range keys {
		keys[i] = key + int64(i)
	}
	ops := map[string]func() error{
		"SeekGE": func() error {
			it, err := tr.SeekGE(key)
			if err == nil {
				it.Close()
			}
			return err
		},
		"Get":    func() error { _, err := tr.Get(key); return err },
		"Update": func() error { return tr.Update(key, payload(key)) },
		"Insert": func() error { return tr.Insert(key, payload(key)) },
		"GetBatch": func() error {
			return tr.GetBatch(keys, func(int, []byte) error { return nil })
		},
		"NextGE": func() error {
			it, err := tr.SeekFirst()
			if err != nil {
				return err
			}
			defer it.Close()
			_, _, _, err = it.NextGE(key)
			return err
		},
		"Next": func() error {
			it, err := tr.SeekFirst()
			if err != nil {
				return err
			}
			defer it.Close()
			for {
				_, _, ok, err := it.Next()
				if !ok || err != nil {
					return err
				}
			}
		},
	}
	for name, op := range ops {
		if err := op(); !errors.Is(err, storage.ErrBadSlot) {
			t.Fatalf("%s on a corrupt leaf: err = %v", name, err)
		}
		testutil.AssertNoLeaks(t, pool)
	}
}
