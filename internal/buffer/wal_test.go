package buffer

import (
	"strings"
	"testing"

	"corep/internal/disk"
)

// dirtyPage pins page id, stamps a byte, and unpins dirty.
func dirtyPage(t *testing.T, p *Pool, id disk.PageID, b byte) {
	t.Helper()
	buf, err := p.Pin(id)
	if err != nil {
		t.Fatalf("pin %d: %v", id, err)
	}
	buf[0] = b
	p.Unpin(id, true)
}

func allocPages(t *testing.T, p *Pool, n int) []disk.PageID {
	t.Helper()
	ids := make([]disk.PageID, n)
	for i := range ids {
		id, _, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, true)
		ids[i] = id
	}
	return ids
}

func TestNoStealBlocksEviction(t *testing.T) {
	sim := disk.NewSim()
	p := New(sim, 4)
	ids := allocPages(t, p, 8) // more pages than frames
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.SetNoSteal(true)
	writesBefore := sim.Stats().Writes
	// Dirty 3 of the 4 frames' worth of pages under the gate; they must
	// all stay resident and none may reach the disk.
	for i := 0; i < 3; i++ {
		dirtyPage(t, p, ids[i], 0xEE)
	}
	if got := p.UnloggedCount(); got != 3 {
		t.Fatalf("unlogged = %d, want 3", got)
	}
	// A miss can still evict the one remaining clean frame...
	if _, err := p.Pin(ids[6]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[6], false)
	// ...until it too is dirtied under the gate; then a miss has only
	// unlogged frames to choose from and must refuse.
	dirtyPage(t, p, ids[6], 0xEE)
	if _, err := p.Pin(ids[5]); err == nil {
		t.Fatal("want eviction refusal with every candidate unlogged")
	} else if !strings.Contains(err.Error(), "awaiting log capture") {
		t.Fatalf("unexpected error: %v", err)
	}
	if w := sim.Stats().Writes - writesBefore; w != 0 {
		t.Fatalf("unlogged page reached disk: %d writes", w)
	}
}

func TestFlushAllRefusesUnlogged(t *testing.T) {
	p := New(disk.NewSim(), 8)
	ids := allocPages(t, p, 2)
	p.FlushAll()
	p.SetNoSteal(true)
	dirtyPage(t, p, ids[0], 1)
	if err := p.FlushAll(); err == nil {
		t.Fatal("want FlushAll refusal with an unlogged frame")
	}
	if err := p.Invalidate(); err == nil {
		t.Fatal("want Invalidate refusal with an unlogged frame")
	}
	// After capture both succeed.
	if err := p.CollectUnlogged(func(disk.PageID, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectUnloggedOrderAndClear(t *testing.T) {
	p := New(disk.NewSim(), 16)
	ids := allocPages(t, p, 6)
	p.FlushAll()
	p.SetNoSteal(true)
	// Dirty in shuffled order; capture must come back sorted by page id.
	for _, i := range []int{4, 0, 5, 2} {
		dirtyPage(t, p, ids[i], byte(i))
	}
	var got []disk.PageID
	err := p.CollectUnlogged(func(id disk.PageID, img []byte) error {
		got = append(got, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []disk.PageID{ids[0], ids[2], ids[4], ids[5]}
	if len(got) != len(want) {
		t.Fatalf("captured %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("captured %v, want ascending %v", got, want)
		}
	}
	if n := p.UnloggedCount(); n != 0 {
		t.Fatalf("marks not cleared: %d", n)
	}
	// Captured frames are evictable again (still dirty): eviction now
	// writes them back normally.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestDropAllDiscardsDirt(t *testing.T) {
	sim := disk.NewSim()
	p := New(sim, 8)
	ids := allocPages(t, p, 3)
	p.FlushAll()
	// Stamp durable state, then dirty in-pool only.
	for _, id := range ids {
		dirtyPage(t, p, id, 0x11)
	}
	p.FlushAll()
	p.SetNoSteal(true)
	dirtyPage(t, p, ids[1], 0x22)
	writes := sim.Stats().Writes
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	if w := sim.Stats().Writes - writes; w != 0 {
		t.Fatalf("DropAll wrote %d pages", w)
	}
	if p.Resident() != 0 {
		t.Fatalf("%d frames survived DropAll", p.Resident())
	}
	// The disk still has the pre-crash durable bytes.
	buf := make([]byte, disk.PageSize)
	if err := sim.Read(ids[1], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x11 {
		t.Fatalf("durable byte = %x, want 11 (the last flushed value)", buf[0])
	}
	// Dropped, the pool keeps working.
	p.SetNoSteal(false)
	if _, err := p.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[0], false)
}

func TestDropAllRefusesPinned(t *testing.T) {
	p := New(disk.NewSim(), 4)
	id, _, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DropAll(); err == nil {
		t.Fatal("want DropAll refusal with a pinned frame")
	}
	p.Unpin(id, true)
}

// TestGateOffIdentical asserts the gate's default-off path changes
// nothing: same eviction victims and same I/O counts with and without
// the gate code armed-then-disarmed.
func TestGateOffIdentical(t *testing.T) {
	run := func() disk.Stats {
		sim := disk.NewSim()
		p := New(sim, 4)
		ids := allocPages(t, p, 12)
		p.FlushAll()
		for i := 0; i < 50; i++ {
			id := ids[(i*7)%len(ids)]
			dirtyPage(t, p, id, byte(i))
		}
		return sim.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("pool not deterministic: %+v vs %+v", a, b)
	}
}
