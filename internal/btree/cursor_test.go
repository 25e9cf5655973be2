package btree

import (
	"bytes"
	"errors"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
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
