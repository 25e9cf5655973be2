package buffer

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"corep/internal/disk"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPrefetchStagesAndConsumesPlan(t *testing.T) {
	p, d := newPool(64)
	ids := mkPages(t, d, 8)
	// One worker keeps staging in plan order, so waiting on the cumulative
	// staged counter below makes each consume deterministically hit a
	// staged page rather than racing the fetch.
	pf := NewPrefetcher(p, 4, 1)
	if pf == nil {
		t.Fatal("NewPrefetcher returned nil for a 64-page pool")
	}
	defer pf.Close()
	p.SetPrefetcher(pf)

	ch := pf.Start(ids)
	for i, id := range ids {
		waitFor(t, fmt.Sprintf("page %d staged", i), func() bool { return pf.Stats().Staged >= int64(i+1) })
		buf, err := p.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("page %d content = %d", i, buf[0])
		}
		ch.Consumed(id)
		p.Unpin(id, false)
	}
	ch.Finish()

	if got := d.Stats().Reads; got != int64(len(ids)) {
		t.Fatalf("reads = %d, want %d (prefetch must not re-read)", got, len(ids))
	}
	st := pf.Stats()
	if st.Consumed != int64(len(ids)) {
		t.Fatalf("consumed = %d, want %d (stats: %+v)", st.Consumed, len(ids), st)
	}
	if st.Wasted != 0 {
		t.Fatalf("wasted = %d, want 0 (stats: %+v)", st.Wasted, st)
	}
	if n := p.PinnedCount(); n != 0 {
		t.Fatalf("pinned = %d after Finish", n)
	}
}

func TestPrefetchCoalescesDuplicates(t *testing.T) {
	p, d := newPool(64)
	ids := mkPages(t, d, 4)
	pf := NewPrefetcher(p, 8, 1)
	defer pf.Close()

	plan := append(append([]disk.PageID{}, ids...), ids...) // every id twice
	ch := pf.Start(plan)
	for i, id := range ids {
		waitFor(t, fmt.Sprintf("page %d staged", i), func() bool { return pf.Stats().Staged >= int64(i+1) })
		if _, err := p.Pin(id); err != nil {
			t.Fatal(err)
		}
		ch.Consumed(id)
		p.Unpin(id, false)
	}
	ch.Finish()

	if got := d.Stats().Reads; got != int64(len(ids)) {
		t.Fatalf("reads = %d, want %d distinct", got, len(ids))
	}
	st := pf.Stats()
	if st.Coalesced != int64(len(ids)) {
		t.Fatalf("coalesced = %d, want %d (stats: %+v)", st.Coalesced, len(ids), st)
	}
}

func TestPrefetchWindowBounded(t *testing.T) {
	const depth = 4
	p, d := newPool(64)
	ids := mkPages(t, d, 32)
	pf := NewPrefetcher(p, depth, 2)
	defer pf.Close()

	ch := pf.Start(ids)
	// With no consumer progress the window must fill and stall at depth:
	// staged pins never exceed it, and no further pages are read.
	waitFor(t, "window fill", func() bool { return pf.Stats().Staged == depth })
	time.Sleep(10 * time.Millisecond) // would overshoot here if unbounded
	if got := d.Stats().Reads; got != depth {
		t.Fatalf("reads = %d, want window depth %d", got, depth)
	}
	if n := p.PinnedCount(); n != depth {
		t.Fatalf("pinned = %d, want %d staged", n, depth)
	}
	ch.Finish()
	st := pf.Stats()
	if st.Wasted != depth {
		t.Fatalf("wasted = %d, want %d (stats: %+v)", st.Wasted, depth, st)
	}
	if n := p.PinnedCount(); n != 0 {
		t.Fatalf("pinned = %d after Finish", n)
	}
}

func TestPrefetchDrainAndCloseReleaseEverything(t *testing.T) {
	p, d := newPool(64)
	ids := mkPages(t, d, 16)
	pf := NewPrefetcher(p, 4, 2)

	pf.Start(ids[:8]) // chain abandoned without Finish
	waitFor(t, "staging", func() bool { return pf.Stats().Staged >= 1 })
	pf.Drain()
	if n := p.PinnedCount(); n != 0 {
		t.Fatalf("pinned = %d after Drain", n)
	}

	// Drain leaves the workers alive: a new chain still prefetches.
	ch := pf.Start(ids[8:])
	waitFor(t, "staging after drain", func() bool { return pf.Stats().Staged >= 1 })
	_ = ch

	pf.Close()
	pf.Close() // idempotent
	if n := p.PinnedCount(); n != 0 {
		t.Fatalf("pinned = %d after Close", n)
	}
	if pf.Start(ids) != nil {
		t.Fatal("Start after Close returned a live chain")
	}
}

func TestPrefetchNilSafety(t *testing.T) {
	var pf *Prefetcher
	if pf.Depth() != 0 {
		t.Fatal("nil Depth")
	}
	if pf.Stats() != (PrefetchStats{}) {
		t.Fatal("nil Stats")
	}
	pf.Drain()
	pf.Close()
	var ch *Chain
	if ch = pf.Start([]disk.PageID{1, 2}); ch != nil {
		t.Fatal("nil Start returned a chain")
	}
	ch.Seed(3)
	ch.Consumed(1)
	ch.Finish()

	p, _ := newPool(8)
	if p.Prefetcher() != nil {
		t.Fatal("fresh pool has a prefetcher")
	}
}

func TestNewPrefetcherClampsToShardCapacity(t *testing.T) {
	d := disk.NewSim()
	p, err := NewSharded(d, 16, 8) // 2 frames per shard
	if err != nil {
		t.Fatal(err)
	}
	pf := NewPrefetcher(p, 64, 0)
	if pf == nil {
		t.Fatal("depth 1 should still be viable")
	}
	if pf.Depth() != 1 {
		t.Fatalf("depth = %d, want clamp to 1 (half the 2-frame shard)", pf.Depth())
	}
	pf.Close()

	tiny := New(d, 1)
	if NewPrefetcher(tiny, 8, 0) != nil {
		t.Fatal("1-frame pool must refuse a prefetcher")
	}
}

// TestPrefetchCloseRaces shuts the prefetcher down while scans are
// mid-chain; run under -race. Chains must become inert, every pin must
// be released, and consumers must fall back to synchronous reads.
func TestPrefetchCloseRaces(t *testing.T) {
	d := disk.NewSim()
	p, err := NewSharded(d, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	ids := mkPages(t, d, 48)
	d.SetLatency(50 * time.Microsecond)
	defer d.SetLatency(0)
	pf := NewPrefetcher(p, 8, 4)
	p.SetPrefetcher(pf)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				ch := p.Prefetcher().Start(ids[g*12 : g*12+12])
				for _, id := range ids[g*12 : g*12+12] {
					buf, err := p.Pin(id)
					if err != nil {
						panic(fmt.Sprintf("pin: %v", err))
					}
					ch.Consumed(id)
					p.Unpin(id, false)
					_ = buf
				}
				ch.Finish()
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	p.SetPrefetcher(nil)
	pf.Close()
	wg.Wait()
	if n := p.PinnedCount(); n != 0 {
		t.Fatalf("pinned = %d after racing Close", n)
	}
}
