// Package buffer implements the buffer pool between the access methods
// and the simulated disk.
//
// The pool mirrors the paper's experimental setup: "A main memory buffer
// size of 100 INGRES data pages was used throughout our study" (§4). A
// page access that hits the pool is free; a miss costs one disk read,
// and evicting a dirty frame costs one disk write. Replacement is LRU.
//
// For concurrent serving the pool is lock-striped: frames are divided
// into shards keyed by page id, each with its own mutex, frame table and
// replacement state, so readers touching different pages do not contend.
// A single-shard pool (the default, and what every paper experiment
// uses) behaves exactly like the classic single-mutex pool — eviction
// decisions, and therefore simulated I/O counts, are unchanged.
package buffer

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"corep/internal/disk"
	"corep/internal/obs"
)

// DefaultPoolSize is the paper's buffer size: 100 pages.
const DefaultPoolSize = 100

// Stats counts buffer-pool events. Disk-level reads/writes are tracked
// by the disk manager; these counters describe pool behaviour.
type Stats struct {
	Hits      int64 // page requests served from the pool
	Misses    int64 // page requests that went to disk
	Flushes   int64 // dirty pages written back
	Pins      int64 // total pin operations
	Retries   int64 // disk operations reissued after a transient fault
	Recovered int64 // disk operations that succeeded after retrying
}

// Sub returns the counter deltas s - o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{Hits: s.Hits - o.Hits, Misses: s.Misses - o.Misses,
		Flushes: s.Flushes - o.Flushes, Pins: s.Pins - o.Pins,
		Retries: s.Retries - o.Retries, Recovered: s.Recovered - o.Recovered}
}

// HitRate returns hits / (hits+misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d flushes=%d hitrate=%.3f", s.Hits, s.Misses, s.Flushes, s.HitRate())
}

// Counters exposes the stats as named values for uniform sink reporting.
func (s Stats) Counters() []obs.KV {
	return []obs.KV{
		{Key: "buffer.hits", Value: s.Hits},
		{Key: "buffer.misses", Value: s.Misses},
		{Key: "buffer.flushes", Value: s.Flushes},
		{Key: "buffer.pins", Value: s.Pins},
		{Key: "buffer.retries", Value: s.Retries},
		{Key: "buffer.recovered", Value: s.Recovered},
	}
}

// RetryPolicy bounds how the pool reissues disk operations that fail
// with a transient injected fault (disk.IsTransient). Permanent faults
// and real errors are never retried. With no fault injector installed
// the policy is inert: no disk error is transient, so every counter and
// every I/O count is bit-identical to a pool without retry.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (first
	// attempt included). Values < 1 mean 1: no retry.
	MaxAttempts int
	// Backoff is slept before retry k as Backoff << (k-1). It is served
	// under the shard lock — keep it at simulation scale (microseconds),
	// like disk.Sim's device latency.
	Backoff time.Duration
}

// DefaultRetryPolicy rides out a default fault plan's transient episode
// (length 2) with one attempt to spare, without sleeping.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3}

type frame struct {
	id    disk.PageID
	buf   []byte
	pins  int
	dirty bool
	// scan marks a frame loaded by a flooding sweep (PinScan miss). Scan
	// frames are unpinned to the eviction end of the replacement list, so
	// a sorted sweep larger than the pool churns one slot instead of
	// flushing the resident set (LRU sequential flooding). A normal Pin
	// hit clears the mark — genuinely reused pages become hot.
	scan bool
	// unlogged marks a frame dirtied while the WAL no-steal gate is on
	// whose page image has not yet been captured into the log. Such a
	// frame must not be written to the page file (eviction skips it,
	// FlushAll/Invalidate refuse it): the write-ahead rule is that the
	// log record covering a change is durable before the page is. The
	// mark clears when CollectUnlogged hands the image to the log.
	unlogged bool
	// prev/next link the frame into its shard's replacement list; both
	// are nil while the frame is pinned (or not yet resident).
	prev, next *frame
}

// frameList is a shard's replacement list: its unpinned frames, front =
// least recently used. The links live in the frames themselves, so
// moving a frame on or off the list allocates nothing.
type frameList struct {
	root frame // sentinel: root.next is the front, root.prev the back
}

func (l *frameList) init() { l.root.next, l.root.prev = &l.root, &l.root }

// front returns the first frame, nil when the list is empty.
func (l *frameList) front() *frame { return l.after(&l.root) }

// after returns the frame following f, nil at the back.
func (l *frameList) after(f *frame) *frame {
	if f.next == &l.root {
		return nil
	}
	return f.next
}

// insert links f in after at.
func (l *frameList) insert(f, at *frame) {
	f.prev, f.next = at, at.next
	at.next.prev = f
	at.next = f
}

func (l *frameList) pushFront(f *frame) { l.insert(f, &l.root) }
func (l *frameList) pushBack(f *frame)  { l.insert(f, l.root.prev) }

// remove unlinks f if it is on the list.
func (l *frameList) remove(f *frame) {
	if f.next == nil {
		return
	}
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// shard is one stripe of the pool: a fixed-capacity frame table with its
// own lock and replacement state. A page id always maps to the same
// shard, so per-page exclusion (frame lookup, disk transfer of that
// page) is provided by the shard mutex.
type shard struct {
	mu     sync.Mutex
	dm     disk.Manager
	cap    int
	frames map[disk.PageID]*frame
	lru    frameList // unpinned frames, front = least recently used
	retry  atomic.Pointer[RetryPolicy]

	hits, misses, flushes, pins, retries, recovered atomic.Int64
}

// run executes a disk operation under the shard's retry policy:
// transient faults are reissued up to MaxAttempts times, everything
// else returns immediately.
func (s *shard) run(op func() error) error {
	rp := *s.retry.Load()
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil {
			if attempt > 1 {
				s.recovered.Add(1)
			}
			return nil
		}
		if attempt >= rp.MaxAttempts || !disk.IsTransient(err) {
			return err
		}
		s.retries.Add(1)
		if d := rp.Backoff; d > 0 {
			time.Sleep(d << (attempt - 1))
		}
	}
}

func (s *shard) readPage(id disk.PageID, buf []byte) error {
	return s.run(func() error { return s.dm.Read(id, buf) })
}

func (s *shard) writePage(id disk.PageID, buf []byte) error {
	return s.run(func() error { return s.dm.Write(id, buf) })
}

// Pool is a fixed-capacity buffer pool striped into one or more shards.
// It is safe for concurrent use; with a single shard (the default) its
// replacement behaviour is identical to the classic global-mutex pool.
type Pool struct {
	dm     disk.Manager
	cap    int
	shards []*shard

	obsMu sync.Mutex
	obs   obs.Ctx

	// pref is the attached asynchronous prefetcher, nil when prefetch is
	// disabled (the default — the paper's synchronous access pattern).
	pref atomic.Pointer[Prefetcher]

	// noSteal arms the WAL write-ahead gate: frames dirtied while it is
	// on are marked unlogged and pinned to memory (not evictable, not
	// flushable) until CollectUnlogged captures their images for the
	// log. Off (the default) the pool behaves bit-identically to the
	// pre-WAL pool. See SetNoSteal.
	noSteal atomic.Bool
}

// New creates a single-shard pool of capacity pages over dm. Capacity
// must be ≥ 1.
func New(dm disk.Manager, capacity int) *Pool {
	p, err := NewSharded(dm, capacity, 1)
	if err != nil {
		panic("buffer: " + err.Error())
	}
	return p
}

// NewSharded creates a pool striped into numShards shards. Capacity is
// the total frame count, distributed as evenly as possible; the shard
// count is clamped so every shard holds at least one frame.
func NewSharded(dm disk.Manager, capacity int, numShards int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("capacity must be >= 1, got %d", capacity)
	}
	if numShards < 1 {
		numShards = 1
	}
	if numShards > capacity {
		numShards = capacity
	}
	p := &Pool{dm: dm, cap: capacity, shards: make([]*shard, numShards)}
	base, extra := capacity/numShards, capacity%numShards
	for i := range p.shards {
		c := base
		if i < extra {
			c++
		}
		p.shards[i] = &shard{dm: dm, cap: c, frames: make(map[disk.PageID]*frame, c)}
		p.shards[i].lru.init()
		rp := DefaultRetryPolicy
		p.shards[i].retry.Store(&rp)
	}
	return p, nil
}

// Capacity returns the total number of frames in the pool.
func (p *Pool) Capacity() int { return p.cap }

// NumShards returns the number of lock stripes.
func (p *Pool) NumShards() int { return len(p.shards) }

// Disk returns the underlying disk manager.
func (p *Pool) Disk() disk.Manager { return p.dm }

// shardFor maps a page id to its stripe. The multiplier is the 64-bit
// Fibonacci hashing constant; with one shard the answer is always 0.
func (p *Pool) shardFor(id disk.PageID) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := uint64(id) * 0x9E3779B97F4A7C15
	return p.shards[h%uint64(len(p.shards))]
}

// Stats returns a snapshot of the pool counters summed over shards.
func (p *Pool) Stats() Stats {
	var s Stats
	for _, sh := range p.shards {
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Flushes += sh.flushes.Load()
		s.Pins += sh.pins.Load()
		s.Retries += sh.retries.Load()
		s.Recovered += sh.recovered.Load()
	}
	return s
}

// SetRetryPolicy installs the transient-fault retry policy on every
// shard (DefaultRetryPolicy at construction).
func (p *Pool) SetRetryPolicy(rp RetryPolicy) {
	if rp.MaxAttempts < 1 {
		rp.MaxAttempts = 1
	}
	for _, s := range p.shards {
		s.retry.Store(&rp)
	}
}

// SetObs installs the observability context operators below the workload
// layer (query.SortTemp) reach through the pool they already hold.
func (p *Pool) SetObs(ctx obs.Ctx) {
	p.obsMu.Lock()
	defer p.obsMu.Unlock()
	p.obs = ctx
}

// Obs returns the installed observability context (zero Ctx when unset).
func (p *Pool) Obs() obs.Ctx {
	p.obsMu.Lock()
	defer p.obsMu.Unlock()
	return p.obs
}

// SetPrefetcher attaches (or, with nil, detaches) the asynchronous
// prefetcher scans consult. The caller owns the prefetcher's lifecycle:
// detach it here before Close so new scans stop seeing it.
func (p *Pool) SetPrefetcher(pf *Prefetcher) { p.pref.Store(pf) }

// Prefetcher returns the attached prefetcher, or nil when prefetch is
// off. Scans treat the nil result (and nil Chains) as inert.
func (p *Pool) Prefetcher() *Prefetcher { return p.pref.Load() }

// Resident returns the number of frames currently holding a page — the
// buffer-pool residency gauge.
func (p *Pool) Resident() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}

// Pin fetches page id into the pool and pins it. The returned buffer is
// the frame's backing store: it stays valid until the matching Unpin.
// Callers that modify the buffer must pass dirty=true to Unpin.
func (p *Pool) Pin(id disk.PageID) ([]byte, error) {
	s := p.shardFor(id)
	s.mu.Lock()
	buf, err := s.pinLockedFetch(id)
	s.mu.Unlock()
	return buf, err
}

// pinLockedFetch is Pin's body, run under the shard lock.
func (s *shard) pinLockedFetch(id disk.PageID) ([]byte, error) {
	s.pins.Add(1)
	if f, ok := s.frames[id]; ok {
		s.hits.Add(1)
		f.scan = false
		s.pinLocked(f)
		return f.buf, nil
	}
	s.misses.Add(1)
	f, err := s.victimLocked()
	if err != nil {
		return nil, err
	}
	if err := s.readPage(id, f.buf); err != nil {
		return nil, err
	}
	f.id, f.pins, f.dirty, f.scan = id, 1, false, false
	s.frames[id] = f
	return f.buf, nil
}

// PinScan is Pin for sweeps big enough to flood the pool (btree.GetBatch
// decides; the prefetcher stages every page with it): a resident page
// is pinned without touching its replacement state, while a page the
// sweep has to load from disk is marked read-once, so unpinning it
// sends it to the eviction end instead of displacing the hot set.
func (p *Pool) PinScan(id disk.PageID) ([]byte, error) {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins.Add(1)
	if f, ok := s.frames[id]; ok {
		s.hits.Add(1)
		s.pinLocked(f)
		return f.buf, nil
	}
	s.misses.Add(1)
	f, err := s.victimLocked()
	if err != nil {
		return nil, err
	}
	if err := s.readPage(id, f.buf); err != nil {
		return nil, err
	}
	f.id, f.pins, f.dirty, f.scan = id, 1, false, true
	s.frames[id] = f
	return f.buf, nil
}

// GetBatch pins every page of ids in ascending page order, deduplicating
// repeated ids so each distinct page is pinned (and, on a miss, read)
// once, and calls fn(i, buf) for each requested index i with its page's
// buffer while the page is pinned. The buffers are read-only for fn;
// every pin is released before GetBatch returns. Sorting converts a
// random probe set into one sequential sweep — the page-ordered access
// pattern behind Database.FetchBatch. Unlike btree.GetBatch it has no
// BatchSortMin fallback: page ids are already the unit of I/O here, so
// sorting even a tiny batch only dedups repeated ids and cannot read
// more pages than the equivalent Pin loop.
func (p *Pool) GetBatch(ids []disk.PageID, fn func(i int, buf []byte) error) error {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if ids[order[a]] != ids[order[b]] {
			return ids[order[a]] < ids[order[b]]
		}
		return order[a] < order[b]
	})
	// The sorted distinct ids are exactly the sweep's page plan — hand it
	// to the prefetcher (when attached) so upcoming pages stage while the
	// current one is consumed.
	var ch *Chain
	if pf := p.Prefetcher(); pf != nil {
		plan := make([]disk.PageID, 0, len(order))
		for _, o := range order {
			if id := ids[o]; len(plan) == 0 || id != plan[len(plan)-1] {
				plan = append(plan, id)
			}
		}
		if len(plan) > 1 {
			ch = pf.Start(plan)
			defer ch.Finish()
		}
	}
	for i := 0; i < len(order); {
		id := ids[order[i]]
		buf, err := p.Pin(id)
		if err != nil {
			return err
		}
		ch.Consumed(id)
		for ; i < len(order) && ids[order[i]] == id; i++ {
			if err := fn(order[i], buf); err != nil {
				p.Unpin(id, false)
				return err
			}
		}
		p.Unpin(id, false)
	}
	return nil
}

// NewPage allocates a fresh disk page, pins it and returns its id and
// buffer. The frame starts dirty (it must reach disk eventually).
func (p *Pool) NewPage() (disk.PageID, []byte, error) {
	// Alloc retries run under shard 0's policy (the target shard is
	// unknown until the id exists); its counters absorb them.
	var id disk.PageID
	err := p.shards[0].run(func() error {
		var e error
		id, e = p.dm.Alloc()
		return e
	})
	if err != nil {
		return disk.InvalidPageID, nil, err
	}
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins.Add(1)
	f, err := s.victimLocked()
	if err != nil {
		return disk.InvalidPageID, nil, err
	}
	for i := range f.buf {
		f.buf[i] = 0
	}
	f.id, f.pins, f.dirty, f.scan = id, 1, true, false
	f.unlogged = p.noSteal.Load() // a fresh page is dirty by definition
	s.frames[id] = f
	return id, f.buf, nil
}

// Unpin releases one pin on page id; dirty marks the frame as modified.
func (p *Pool) Unpin(id disk.PageID, dirty bool) {
	s := p.shardFor(id)
	s.mu.Lock()
	f, ok := s.frames[id]
	if !ok || f.pins == 0 {
		s.mu.Unlock()
		panic(fmt.Sprintf("buffer: unpin of unpinned page %d", id))
	}
	if dirty {
		f.dirty = true
		if p.noSteal.Load() {
			f.unlogged = true
		}
	}
	f.pins--
	if f.pins == 0 {
		if f.scan {
			// Read-once sweep page: next in line for eviction.
			s.lru.pushFront(f)
		} else {
			s.lru.pushBack(f)
		}
	}
	s.mu.Unlock()
}

// FlushAll writes every dirty frame back to disk (pool contents are
// kept). Used between experiment phases so that load-time dirt is not
// charged to the measured queries. Shards are flushed one at a time
// under their own locks, so FlushAll is safe against concurrent readers.
func (p *Pool) FlushAll() error {
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty {
				if f.unlogged {
					s.mu.Unlock()
					return fmt.Errorf("buffer: flush of page %d before its log capture (run CollectUnlogged first)", f.id)
				}
				if err := s.writePage(f.id, f.buf); err != nil {
					s.mu.Unlock()
					return err
				}
				f.dirty = false
				s.flushes.Add(1)
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// Invalidate drops every unpinned frame after flushing dirty ones,
// leaving the pool cold. Experiments call this between query sequences.
func (p *Pool) Invalidate() error {
	for _, s := range p.shards {
		s.mu.Lock()
		for id, f := range s.frames {
			if f.pins > 0 {
				s.mu.Unlock()
				return fmt.Errorf("buffer: invalidate with pinned page %d", id)
			}
			if f.dirty {
				if f.unlogged {
					s.mu.Unlock()
					return fmt.Errorf("buffer: invalidate of page %d before its log capture (run CollectUnlogged first)", id)
				}
				if err := s.writePage(f.id, f.buf); err != nil {
					s.mu.Unlock()
					return err
				}
				f.dirty = false
				s.flushes.Add(1)
			}
			s.lru.remove(f)
			delete(s.frames, id)
		}
		s.mu.Unlock()
	}
	return nil
}

// PinnedCount returns the number of currently pinned frames (testing aid;
// every operator must leave this at zero when it finishes).
func (p *Pool) PinnedCount() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.pins > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

func (s *shard) pinLocked(f *frame) {
	if f.pins == 0 {
		s.lru.remove(f)
	}
	f.pins++
}

// victimLocked returns a free frame, evicting the shard's least
// recently used evictable frame if the shard is full. The returned
// frame is detached from the map/LRU.
func (s *shard) victimLocked() (*frame, error) {
	if len(s.frames) < s.cap {
		return &frame{buf: make([]byte, disk.PageSize)}, nil
	}
	f := s.chooseVictimLocked()
	if f == nil {
		return nil, fmt.Errorf("buffer: all %d frames of shard pinned or awaiting log capture", s.cap)
	}
	// Write back before detaching: if the write fails, the dirty frame
	// stays resident and no data is lost.
	if f.dirty {
		if err := s.writePage(f.id, f.buf); err != nil {
			return nil, err
		}
		f.dirty = false
		s.flushes.Add(1)
	}
	s.lru.remove(f)
	delete(s.frames, f.id)
	return f, nil
}

// chooseVictimLocked picks the frame to evict: the least recently used
// of the unpinned frames the list holds. Unlogged frames (dirtied under
// the WAL no-steal gate, image not yet captured) are never chosen:
// writing them back would put a page on disk ahead of its log record.
func (s *shard) chooseVictimLocked() *frame {
	for f := s.lru.front(); f != nil; f = s.lru.after(f) {
		if !f.unlogged {
			return f
		}
	}
	return nil
}
