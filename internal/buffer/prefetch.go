// Asynchronous prefetch: bounded worker goroutines that stage upcoming
// pages into the pool while the consumer works, overlapping simulated
// device latency with query processing.
//
// Two access patterns feed it. Sequential readahead: chain scans (heap
// files, B-tree leaf walks) open a Chain and seed it with the next pages
// as they discover them. Plan prefetch: batch probes (btree.GetBatch,
// ISAM-driven cluster fetches) already know the page-ordered plan and
// hand it over whole, so many fetches overlap their device waits.
//
// Design constraints, in order:
//
//   - Page-read counts must never exceed the synchronous path's. Workers
//     fetch only pages the consumer is about to read, through PinScan, so
//     a prefetched page enters the pool read-once (scan-resistant: it is
//     first in line for eviction until the consumer actually pins it) and
//     readahead can never flood the hot set.
//   - Staged pages stay pinned until consumed, so the window (in-flight +
//     staged) is bounded by depth, clamped well below the smallest
//     shard's capacity — the consumer can always find a victim frame.
//   - Workers never parse page contents and never hold pf.mu across a
//     pool call that sleeps (PinScan); the only lock order is
//     pf.mu → shard.mu, so scans, invalidations and shutdown cannot
//     deadlock. Worker errors (e.g. a momentarily pin-full shard) drop
//     the request: the consumer simply reads synchronously.
package buffer

import (
	"sync"
	"sync/atomic"

	"corep/internal/disk"
)

// BatchSortMin is the batch size below which the page-ordered batch
// paths (Pool.GetBatch, btree.GetBatch) degenerate to a per-request loop
// in input order. A handful of probes gains nothing from sorting, and
// reordering them would perturb the buffer pool's eviction sequence —
// small batches must cost exactly what the equivalent loop costs.
const BatchSortMin = 16

// DefaultPrefetchDepth is the prefetch window (in-flight + staged pages)
// used when workload.Config.PrefetchEnabled is set without an explicit
// depth: deep enough to overlap several device waits, small next to the
// paper's 100-page pool.
const DefaultPrefetchDepth = 8

// maxPrefetchWorkers bounds the fetch goroutines per prefetcher.
const maxPrefetchWorkers = 8

// PrefetchStats counts prefetcher events.
type PrefetchStats struct {
	Requested int64 // pages handed to fetch workers
	Staged    int64 // fetches completed and parked for the consumer
	Consumed  int64 // prefetched pages the consumer claimed
	Coalesced int64 // duplicate requests dropped before fetching
	Wasted    int64 // staged pages released unconsumed
	Dropped   int64 // requests abandoned (errors, shutdown, chain finished)
	FetchErrs int64 // fetches that failed (faults included); consumer falls back to a synchronous read
}

// Sub returns the counter deltas s - o.
func (s PrefetchStats) Sub(o PrefetchStats) PrefetchStats {
	return PrefetchStats{
		Requested: s.Requested - o.Requested,
		Staged:    s.Staged - o.Staged,
		Consumed:  s.Consumed - o.Consumed,
		Coalesced: s.Coalesced - o.Coalesced,
		Wasted:    s.Wasted - o.Wasted,
		Dropped:   s.Dropped - o.Dropped,
		FetchErrs: s.FetchErrs - o.FetchErrs,
	}
}

// request is one page handed to the fetch workers.
type request struct {
	c  *Chain
	id disk.PageID
}

// Prefetcher owns the worker pool and the in-flight table. All methods
// are safe for concurrent use and safe on a nil receiver (no-ops), so
// call sites need no prefetch-enabled checks.
type Prefetcher struct {
	pool  *Pool
	depth int

	reqCh chan request
	quit  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	chains   map[*Chain]struct{}
	inflight int // requests queued or being fetched
	staged   int // pages parked (pinned) awaiting their consumer

	requested, stagedN, consumed, coalesced, wasted, dropped, fetchErrs atomic.Int64
}

// Chain is one consumer's prefetch stream: an ordered plan of upcoming
// pages plus the per-chain in-flight/staged bookkeeping. A chain belongs
// to a single consumer goroutine; its methods are nil-safe.
type Chain struct {
	pf *Prefetcher

	// Guarded by pf.mu.
	plan     []disk.PageID
	next     int                  // plan cursor: next index to request
	inflight int                  // requests outstanding for this chain
	inFly    map[disk.PageID]bool // ids queued or being fetched
	staged   map[disk.PageID]bool // ids parked (pinned) for the consumer
	pending  map[disk.PageID]bool // consumed before the fetch landed
	seen     map[disk.PageID]bool // ever requested on this chain
	done     bool
}

// NewPrefetcher creates a prefetcher over pool with the given window
// depth and worker count (0 picks defaults). The depth is clamped to
// half the smallest shard's capacity so staged pins can never exhaust a
// shard; if the pool is too small to prefetch safely, nil is returned
// (a nil Prefetcher is a valid, inert value).
func NewPrefetcher(pool *Pool, depth, workers int) *Prefetcher {
	if depth <= 0 {
		depth = DefaultPrefetchDepth
	}
	minShard := pool.cap / len(pool.shards)
	if max := minShard / 2; depth > max {
		depth = max
	}
	if depth < 1 {
		return nil
	}
	if workers <= 0 {
		workers = depth / 2
	}
	if workers < 1 {
		workers = 1
	}
	if workers > maxPrefetchWorkers {
		workers = maxPrefetchWorkers
	}
	pf := &Prefetcher{
		pool:   pool,
		depth:  depth,
		reqCh:  make(chan request, depth),
		quit:   make(chan struct{}),
		chains: make(map[*Chain]struct{}),
	}
	pf.cond = sync.NewCond(&pf.mu)
	for i := 0; i < workers; i++ {
		pf.wg.Add(1)
		go pf.worker()
	}
	return pf
}

// Depth returns the configured window (0 on nil).
func (pf *Prefetcher) Depth() int {
	if pf == nil {
		return 0
	}
	return pf.depth
}

// Stats returns a snapshot of the prefetch counters (zero on nil).
func (pf *Prefetcher) Stats() PrefetchStats {
	if pf == nil {
		return PrefetchStats{}
	}
	return PrefetchStats{
		Requested: pf.requested.Load(),
		Staged:    pf.stagedN.Load(),
		Consumed:  pf.consumed.Load(),
		Coalesced: pf.coalesced.Load(),
		Wasted:    pf.wasted.Load(),
		Dropped:   pf.dropped.Load(),
		FetchErrs: pf.fetchErrs.Load(),
	}
}

// StagedCount returns the number of pages currently parked (pinned)
// awaiting a consumer (0 on nil). Leak checks assert this is zero after
// every chain has finished.
func (pf *Prefetcher) StagedCount() int {
	if pf == nil {
		return 0
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.staged
}

// InflightCount returns the number of requests queued or being fetched
// (0 on nil).
func (pf *Prefetcher) InflightCount() int {
	if pf == nil {
		return 0
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.inflight
}

// Start opens a chain primed with plan — the pages the consumer expects
// to read, in order. Pass nil to open an empty chain and feed it with
// Seed as the scan discovers its successors. Returns nil (an inert
// chain) on a nil or closed prefetcher.
func (pf *Prefetcher) Start(plan []disk.PageID) *Chain {
	if pf == nil {
		return nil
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil
	}
	c := &Chain{
		pf:      pf,
		plan:    append([]disk.PageID(nil), plan...),
		inFly:   make(map[disk.PageID]bool),
		staged:  make(map[disk.PageID]bool),
		pending: make(map[disk.PageID]bool),
		seen:    make(map[disk.PageID]bool),
	}
	pf.chains[c] = struct{}{}
	pf.topUpLocked()
	return c
}

// Seed appends id to the chain's plan — sequential readahead's way of
// announcing the next page as the scan discovers it.
func (c *Chain) Seed(id disk.PageID) {
	if c == nil || id == disk.InvalidPageID {
		return
	}
	pf := c.pf
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if c.done || pf.closed {
		return
	}
	c.plan = append(c.plan, id)
	pf.topUpLocked()
}

// Consumed tells the chain the consumer has read page id. Call it only
// AFTER acquiring your own pin on the page (or after a Get that pinned
// it): the staged pin is what keeps a prefetched page resident until its
// consumer arrives, and Consumed releases it.
func (c *Chain) Consumed(id disk.PageID) {
	if c == nil {
		return
	}
	pf := c.pf
	pf.mu.Lock()
	defer pf.mu.Unlock()
	switch {
	case c.staged[id]:
		delete(c.staged, id)
		pf.staged--
		pf.pool.Unpin(id, false)
		pf.consumed.Add(1)
		pf.topUpLocked()
	case c.inFly[id]:
		// The consumer got there first; when the fetch lands (or before it
		// starts) the worker drops it without staging.
		c.pending[id] = true
	}
}

// Finish closes the chain: waits out its in-flight fetches, releases any
// staged pages unconsumed, and detaches it from the prefetcher. Always
// call it before the scan returns; it is idempotent and nil-safe.
func (c *Chain) Finish() {
	if c == nil {
		return
	}
	pf := c.pf
	pf.mu.Lock()
	defer pf.mu.Unlock()
	c.done = true
	for c.inflight > 0 {
		pf.cond.Wait()
	}
	c.releaseLocked()
	delete(pf.chains, c)
	pf.topUpLocked()
}

// releaseLocked unpins the chain's staged pages as wasted. pf.mu held.
func (c *Chain) releaseLocked() {
	for id := range c.staged {
		c.pf.pool.Unpin(id, false)
		c.pf.staged--
		c.pf.wasted.Add(1)
	}
	c.staged = make(map[disk.PageID]bool)
}

// Drain finishes every chain and waits for all in-flight fetches — used
// before Pool.Invalidate (which refuses pinned pages). Chains still held
// by consumers become inert; their Consumed/Finish calls no-op.
func (pf *Prefetcher) Drain() {
	if pf == nil {
		return
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	for c := range pf.chains {
		c.done = true
	}
	for pf.inflight > 0 {
		pf.cond.Wait()
	}
	for c := range pf.chains {
		c.releaseLocked()
		delete(pf.chains, c)
	}
}

// Close shuts the prefetcher down: stops the workers, drops queued
// requests, and releases every staged page. Idempotent and safe while
// scans are in flight — their chains become inert and the consumers fall
// back to synchronous reads.
func (pf *Prefetcher) Close() {
	if pf == nil {
		return
	}
	pf.mu.Lock()
	if pf.closed {
		pf.mu.Unlock()
		return
	}
	pf.closed = true
	pf.mu.Unlock()
	close(pf.quit)
	pf.wg.Wait()
	pf.mu.Lock()
	defer pf.mu.Unlock()
	// Workers are gone; abandon anything still queued.
drain:
	for {
		select {
		case r := <-pf.reqCh:
			r.c.inflight--
			pf.inflight--
			delete(r.c.inFly, r.id)
			pf.dropped.Add(1)
		default:
			break drain
		}
	}
	for c := range pf.chains {
		c.done = true
		c.releaseLocked()
		delete(pf.chains, c)
	}
	pf.cond.Broadcast()
}

// topUpLocked fills the window: while in-flight + staged < depth, hand
// the next planned page of some chain to the workers. Duplicate ids
// within a chain coalesce here. pf.mu held.
func (pf *Prefetcher) topUpLocked() {
	if pf.closed {
		return
	}
	for c := range pf.chains {
		for !c.done && c.next < len(c.plan) && pf.inflight+pf.staged < pf.depth {
			id := c.plan[c.next]
			if c.seen[id] {
				c.next++
				pf.coalesced.Add(1)
				continue
			}
			select {
			case pf.reqCh <- request{c, id}:
				c.next++
				c.seen[id] = true
				c.inFly[id] = true
				c.inflight++
				pf.inflight++
				pf.requested.Add(1)
			default:
				// Queue full; completions re-trigger the top-up.
				return
			}
		}
	}
}

// worker is one fetch goroutine.
func (pf *Prefetcher) worker() {
	defer pf.wg.Done()
	for {
		select {
		case <-pf.quit:
			return
		case r := <-pf.reqCh:
			pf.fetch(r)
		}
	}
}

// fetch stages one page. The PinScan — which may sleep the simulated
// device latency — runs outside pf.mu.
func (pf *Prefetcher) fetch(r request) {
	pf.mu.Lock()
	if pf.closed || r.c.done || r.c.pending[r.id] {
		// Abandoned, or the consumer already read it synchronously.
		r.c.inflight--
		pf.inflight--
		delete(r.c.inFly, r.id)
		if r.c.pending[r.id] {
			delete(r.c.pending, r.id)
		}
		pf.dropped.Add(1)
		pf.cond.Broadcast()
		pf.mu.Unlock()
		return
	}
	pf.mu.Unlock()

	buf, err := pf.pool.PinScan(r.id)
	_ = buf

	pf.mu.Lock()
	defer pf.mu.Unlock()
	r.c.inflight--
	pf.inflight--
	delete(r.c.inFly, r.id)
	switch {
	case err != nil:
		// E.g. every frame of the shard momentarily pinned, or an injected
		// disk fault. The request is dropped without staging anything, so
		// the consumer's Pin takes the synchronous read path and surfaces
		// (or retries) the error itself — a faulted fetch degrades the
		// chain, never poisons it.
		pf.dropped.Add(1)
		pf.fetchErrs.Add(1)
	case pf.closed || r.c.done:
		pf.pool.Unpin(r.id, false)
		pf.wasted.Add(1)
	case r.c.pending[r.id]:
		// Consumer overtook the fetch; it holds (or held) its own pin.
		delete(r.c.pending, r.id)
		pf.pool.Unpin(r.id, false)
		pf.consumed.Add(1)
	default:
		r.c.staged[r.id] = true
		pf.staged++
		pf.stagedN.Add(1)
	}
	pf.topUpLocked()
	pf.cond.Broadcast()
}
