package buffer

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"corep/internal/disk"
)

func TestShardCountClamped(t *testing.T) {
	d := disk.NewSim()
	p, err := NewSharded(d, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 3 {
		t.Fatalf("shards = %d, want clamp to capacity 3", p.NumShards())
	}
	if p.Capacity() != 3 {
		t.Fatalf("capacity = %d", p.Capacity())
	}
	p, err = NewSharded(d, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 1 {
		t.Fatalf("shards = %d, want 1 for numShards=0", p.NumShards())
	}
}

func TestShardedPoolContentsAndStats(t *testing.T) {
	d := disk.NewSim()
	p, err := NewSharded(d, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ids := mkPages(t, d, 40)
	for round := 0; round < 2; round++ {
		for i, id := range ids {
			buf, err := p.Pin(id)
			if err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(i) {
				t.Fatalf("page %d content = %d", i, buf[0])
			}
			p.Unpin(id, false)
		}
	}
	s := p.Stats()
	if s.Hits+s.Misses != 80 {
		t.Fatalf("hits %d + misses %d != 80", s.Hits, s.Misses)
	}
	if s.Misses < 40 {
		t.Fatalf("misses = %d, want >= 40 (40 distinct pages, pool of 8)", s.Misses)
	}
	if p.Resident() > 8 {
		t.Fatalf("resident = %d > capacity", p.Resident())
	}
}

func TestShardedFlushAllAndInvalidate(t *testing.T) {
	d := disk.NewSim()
	p, err := NewSharded(d, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ids := mkPages(t, d, 6)
	for i, id := range ids {
		buf, err := p.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		buf[1] = byte(i + 100)
		p.Unpin(id, true)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, disk.PageSize)
	for i, id := range ids {
		if err := d.Read(id, got); err != nil {
			t.Fatal(err)
		}
		if got[1] != byte(i+100) {
			t.Fatalf("page %d not flushed", i)
		}
	}
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if p.Resident() != 0 {
		t.Fatalf("resident after invalidate = %d", p.Resident())
	}
}

// TestSingleShardMatchesLegacyEviction pins the sharded refactor to the
// seed behaviour: a 1-shard pool must evict exactly like the historic
// global pool (TestLRUEviction exercises it through New, which is
// 1-shard by construction). Here we double-check the explicit path.
func TestSingleShardMatchesLegacyEviction(t *testing.T) {
	d := disk.NewSim()
	p, err := NewSharded(d, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := mkPages(t, d, 3)
	for _, id := range ids[:2] {
		if _, err := p.Pin(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, false)
	}
	if _, err := p.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[0], false)
	if _, err := p.Pin(ids[2]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[2], false)
	d.ResetStats()
	if _, err := p.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[0], false)
	if ds := d.Stats(); ds.Reads != 0 {
		t.Fatalf("LRU victim wrong: page 0 evicted")
	}
}

func TestShardedConcurrentPins(t *testing.T) {
	// Hammer a sharded pool from many goroutines; under -race this is the
	// pool's thread-safety proof, without it still checks contents survive
	// concurrent eviction. Writers stay on goroutine-private pages so page
	// contents are deterministic.
	//
	// Every goroutine holds one pin at a time, and the hash may send all
	// of them to one shard at once: each shard gets as many frames as
	// there are pinners, so "all frames of shard pinned" cannot occur on
	// any schedule, and four pages compete for every frame so eviction
	// still runs constantly.
	const (
		pinners = 8
		shards  = 8
		pages   = 4 * pinners * shards // 256: page i still fits its content byte
	)
	d := disk.NewSim()
	p, err := NewSharded(d, pinners*shards, shards)
	if err != nil {
		t.Fatal(err)
	}
	ids := mkPages(t, d, pages)
	var wg sync.WaitGroup
	errc := make(chan error, pinners)
	for g := 0; g < pinners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 300; n++ {
				i := rng.Intn(pages)
				buf, err := p.Pin(ids[i])
				if err != nil {
					errc <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				if buf[0] != byte(i) {
					errc <- fmt.Errorf("goroutine %d: page %d content = %d", g, i, buf[0])
					p.Unpin(ids[i], false)
					return
				}
				p.Unpin(ids[i], false)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Hits+s.Misses != pinners*300 {
		t.Fatalf("hits %d + misses %d != %d", s.Hits, s.Misses, pinners*300)
	}
	if s.Misses <= pinners*shards {
		t.Fatalf("only %d misses: the pool never evicted", s.Misses)
	}
}

func TestGetBatchSharesPageFetches(t *testing.T) {
	d := disk.NewSim()
	p, err := NewSharded(d, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := mkPages(t, d, 3)
	// Probe page 2, then 0, then 2 again: the batch sorts and dedups, so
	// only two distinct pages are read while the callback still sees the
	// requested order positions.
	req := []disk.PageID{ids[2], ids[0], ids[2]}
	got := make([]byte, len(req))
	err = p.GetBatch(req, func(i int, buf []byte) error {
		got[i] = buf[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("batch contents = %v", got)
	}
	if ds := d.Stats(); ds.Reads != 2 {
		t.Fatalf("reads = %d, want 2 (same-page probes deduplicated)", ds.Reads)
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("pins leaked: %d", p.PinnedCount())
	}
}

// TestGetBatchIsAPinLoop: a GetBatch sweep is nothing but its distinct
// pages pinned one by one in page order — the same misses, the same
// pages resident afterwards, in the same replacement order.
func TestGetBatchIsAPinLoop(t *testing.T) {
	const capacity, pages = 8, 40
	rng := rand.New(rand.NewSource(7))
	req := make([]int, 30) // more distinct pages than frames, with repeats
	for i := range req {
		req[i] = rng.Intn(pages)
	}
	type outcome struct {
		misses int64
		order  []int // unpinned frames, least recently used first
	}
	run := func(sweep func(p *Pool, ids []disk.PageID)) outcome {
		p, _, ids := poolWith(t, capacity, pages)
		index := make(map[disk.PageID]int, pages)
		for i, id := range ids {
			index[id] = i
		}
		for _, i := range []int{3, 17, 4, 29, 3, 11, 38, 4} { // a warm set to displace
			touch(t, p, ids[i])
		}
		before := p.Stats().Misses
		sweep(p, ids)
		if p.PinnedCount() != 0 {
			t.Fatalf("pins leaked: %d", p.PinnedCount())
		}
		out := outcome{misses: p.Stats().Misses - before}
		s := p.shards[0]
		for f := s.lru.front(); f != nil; f = s.lru.after(f) {
			out.order = append(out.order, index[f.id])
		}
		return out
	}
	batch := run(func(p *Pool, ids []disk.PageID) {
		want := make([]disk.PageID, len(req))
		for i, r := range req {
			want[i] = ids[r]
		}
		err := p.GetBatch(want, func(i int, buf []byte) error {
			if buf[0] != byte(req[i]) {
				t.Fatalf("request %d: page %d, want %d", i, buf[0], req[i])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	loop := run(func(p *Pool, ids []disk.PageID) {
		distinct := slices.Clone(req)
		slices.Sort(distinct)
		for _, r := range slices.Compact(distinct) {
			touch(t, p, ids[r])
		}
	})
	if batch.misses != loop.misses || !slices.Equal(batch.order, loop.order) {
		t.Fatalf("GetBatch left %d misses, frames %v; the pin loop %d misses, frames %v",
			batch.misses, batch.order, loop.misses, loop.order)
	}
	if batch.misses <= capacity {
		t.Fatalf("only %d misses: the sweep never evicted", batch.misses)
	}
}
