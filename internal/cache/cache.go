// Package cache implements the paper's outside value cache (§2.3, §3.2).
//
// Cached entries are whole units: "It is best to cache the values of the
// subobjects of a unit together in one place, since they will often be
// needed together." The cache lives on disk as a hash relation keyed by
// a hash of the unit's OID list (§4), shared by every object that
// references exactly that unit — outside caching, the variant the paper
// restricts itself to after [JHIN88].
//
// Invalidation uses I-locks: "Associated with each subobject is a lock
// called an invalidation lock for each unit that it belongs to.
// Consequently, when a subobject is updated, we invalidate all the
// (cached) units whose I-locks are held by the subobject" (§3.2). The
// lock table is an in-memory directory (as is the set of cached unit
// keys); the cached values themselves live on disk and every value
// access or invalidation pays hash-file I/O.
package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/hashfile"
	"corep/internal/object"
	"corep/internal/obs"
)

// Stats counts cache events.
type Stats struct {
	Hits          int64 // Lookup found the unit cached
	Misses        int64 // Lookup did not
	Inserts       int64 // units cached
	Evictions     int64 // units evicted for capacity
	Invalidations int64 // units invalidated by updates
	Degraded      int64 // operations degraded by a disk fault (lookup→miss, insert skipped)
	Orphans       int64 // hash-file entries left behind by faulted deletes
	StaleRejects  int64 // versioned serving: hits suppressed / inserts refused by watermarks
}

// Sub returns the counter deltas s - o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits: s.Hits - o.Hits, Misses: s.Misses - o.Misses, Inserts: s.Inserts - o.Inserts,
		Evictions: s.Evictions - o.Evictions, Invalidations: s.Invalidations - o.Invalidations,
		Degraded: s.Degraded - o.Degraded, Orphans: s.Orphans - o.Orphans,
		StaleRejects: s.StaleRejects - o.StaleRejects,
	}
}

// HitRate returns hits / (hits+misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d inserts=%d evict=%d inval=%d hitrate=%.3f",
		s.Hits, s.Misses, s.Inserts, s.Evictions, s.Invalidations, s.HitRate())
}

// Counters exposes the stats as named values for uniform sink reporting.
func (s Stats) Counters() []obs.KV {
	return []obs.KV{
		{Key: "cache.hits", Value: s.Hits},
		{Key: "cache.misses", Value: s.Misses},
		{Key: "cache.inserts", Value: s.Inserts},
		{Key: "cache.evictions", Value: s.Evictions},
		{Key: "cache.invalidations", Value: s.Invalidations},
		{Key: "cache.degraded", Value: s.Degraded},
		{Key: "cache.orphans", Value: s.Orphans},
		{Key: "cache.stale_rejects", Value: s.StaleRejects},
	}
}

// entry is the directory's record of one cached unit.
type entry struct {
	locks object.Unit // the I-lock set as the insert named it; an OID may repeat
	segs  int         // hash-file entries the value spans
}

// Cache is an outside value cache with bounded capacity (SizeCache,
// "the maximum number of units that can be cached", §4 [3]).
type Cache struct {
	// mu serializes every cache operation, including the hash-file I/O
	// underneath: concurrent readers insert into the cache (lookup-miss →
	// materialize → Insert), so the cache must be internally consistent
	// even when callers hold only a shared latch. See DESIGN.md.
	mu       sync.Mutex
	file     *hashfile.File
	maxUnits int
	rng      *rand.Rand

	// dir: hashkey → the cached unit's directory entry.
	dir map[int64]entry
	// sorted: the directory's hashkeys in ascending order, maintained on
	// insert and drop so an eviction draws its victim without sorting.
	sorted []int64
	// ilocks: subobject OID → hashkeys of the cached units holding an
	// I-lock on it, in the order the locks were taken. A subobject belongs
	// to a handful of units, so a set is a short pointer-free slice
	// (append to lock, swap-remove to unlock) the collector never scans.
	ilocks map[object.OID][]int64

	stats Stats

	// Versioned-serving watermarks (see version.go and DESIGN.md §11).
	// wm[oid] is the newest committed epoch that updated the subobject
	// (W); epochs[key] is the snapshot epoch an entry's value was
	// materialized at (M). Guarded by wmMu, never by c.mu, so the txn
	// commit critical section can advance watermarks without waiting
	// behind hash-file I/O. Lock order: c.mu → wmMu.
	wmMu   sync.Mutex
	wm     map[object.OID]uint64
	epochs map[int64]uint64

	// Obs, when enabled, records spans around the I/O-bearing cache
	// operations (lookup, insert, invalidate). Zero value = disabled.
	Obs obs.Ctx
}

// New creates a cache of at most maxUnits units over a fresh hash file
// with the given bucket count.
func New(pool *buffer.Pool, maxUnits, buckets int, seed int64) (*Cache, error) {
	if maxUnits < 1 {
		return nil, errors.New("cache: maxUnits must be >= 1")
	}
	f, err := hashfile.Create(pool, buckets)
	if err != nil {
		return nil, err
	}
	return &Cache{
		file:     f,
		maxUnits: maxUnits,
		rng:      rand.New(rand.NewSource(seed)),
		dir:      make(map[int64]entry),
		ilocks:   make(map[object.OID][]int64),
		wm:       make(map[object.OID]uint64),
		epochs:   make(map[int64]uint64),
	}, nil
}

// Len returns the number of cached units.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.dir)
}

// Capacity returns SizeCache.
func (c *Cache) Capacity() int { return c.maxUnits }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// IsCached reports whether the unit is cached, consulting only the
// in-memory directory (no I/O) — SMART's breadth-first pass uses this to
// decide which OIDs go to the temporary (§5.3).
func (c *Cache) IsCached(u object.Unit) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.dir[u.HashKey()]
	return ok
}

// maxSegment bounds one hash-file entry; larger unit values are split
// into segments stored under derived keys, each paying its own I/O (a
// big unit really does occupy several pages).
const maxSegment = 1500

// segKey derives the hash-file key of segment i of a unit value.
func segKey(key int64, i int) int64 {
	if i == 0 {
		return key
	}
	h := uint64(key) * 1099511628211
	return int64(h) ^ (int64(i) << 1) ^ 0x5bd1e995
}

// numSegments returns how many hash-file entries a value needs.
func numSegments(valueLen int) int {
	n := (valueLen + maxSegment - 1) / maxSegment
	if n < 1 {
		n = 1
	}
	return n
}

// Lookup fetches the cached value of u, paying one hash-file probe per
// stored segment on hit. ok=false means a miss (no I/O is charged: the
// directory is memory resident).
func (c *Cache) Lookup(u object.Unit) (value []byte, ok bool, err error) {
	return c.AppendLookup(nil, u, 0)
}

// LookupSnap is Lookup for a versioned reader pinned at snapshot epoch
// snap: a cached entry only hits when its value is provably current at
// that snapshot (see freshLocked). snap = 0 — the single-threaded and
// latched paths — skips the watermark check entirely, so those paths
// are byte-identical to the historic Lookup.
func (c *Cache) LookupSnap(u object.Unit, snap uint64) (value []byte, ok bool, err error) {
	return c.AppendLookup(nil, u, snap)
}

// AppendLookup is LookupSnap appending the value to dst, straight off
// the pinned hash-file pages: a caller that keeps one buffer across
// lookups pays no allocation per hit. The buffer stays the caller's;
// the cache keeps no reference to it. On a hit the extended slice is
// returned; on a miss, a degraded hit or an error, dst as it came.
func (c *Cache) AppendLookup(dst []byte, u object.Unit, snap uint64) (value []byte, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := u.HashKey()
	e, cached := c.dir[key]
	if !cached {
		c.stats.Misses++
		return dst, false, nil
	}
	if snap > 0 && !c.freshLocked(key, e.locks, snap) {
		c.stats.Misses++
		c.stats.StaleRejects++
		return dst, false, nil
	}
	// Only hits open a span: misses never touch the hash file.
	sp := c.Obs.Start("cache.lookup")
	defer sp.End()
	sp.SetAttr("segments", int64(e.segs))
	out := dst
	for i := 0; i < e.segs; i++ {
		if out, err = c.file.AppendValue(out, segKey(key, i)); err != nil {
			if disk.IsFault(err) {
				// Graceful degradation: a faulted segment turns the hit
				// into a miss. The entry is dropped so later lookups don't
				// re-probe a bad page, and the caller re-materializes the
				// unit from the base relations — same rows, more I/O.
				sp.SetAttr("degraded", 1)
				if derr := c.drop(key); derr != nil {
					return dst, false, derr
				}
				c.stats.Degraded++
				c.stats.Misses++
				return dst, false, nil
			}
			return dst, false, fmt.Errorf("cache: directory/file mismatch for key %d seg %d: %w", key, i, err)
		}
	}
	c.stats.Hits++
	return out, true, nil
}

// Insert caches value for u (cache maintenance after materializing a
// unit, §3.2). If the cache is full, a random victim is evicted first —
// the paper bounds SizeCache but does not fix a policy; see the
// abl-cachesize bench for sensitivity. Inserting an already-cached unit
// refreshes its value. The value is copied into the hash file's pages;
// the caller may reuse its buffer as soon as Insert returns.
func (c *Cache) Insert(u object.Unit, value []byte) error {
	return c.InsertWithLocks(u, u, value)
}

// InsertWithLocks caches value under key unit u while placing the
// I-locks on locks instead of u's members. Cached procedural results use
// this: the key derives from the stored query, but invalidation must
// fire when any *result* tuple updates.
func (c *Cache) InsertWithLocks(u object.Unit, locks []object.OID, value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertLocked(u, locks, value)
}

// insertLocked is the insert body; the caller holds c.mu.
func (c *Cache) insertLocked(u object.Unit, locks []object.OID, value []byte) error {
	sp := c.Obs.Start("cache.insert")
	defer sp.End()
	sp.SetAttr("bytes", int64(len(value)))
	key := u.HashKey()
	e, exists := c.dir[key]
	if !exists && len(c.dir) >= c.maxUnits {
		if err := c.evictOne(); err != nil {
			return err
		}
	}
	// Replace any previous segments, then write the new ones.
	for i := 0; i < e.segs; i++ {
		if err := c.deleteSeg(segKey(key, i)); err != nil {
			c.abortInsert(key, 0)
			return err
		}
	}
	segs := numSegments(len(value))
	for i := 0; i < segs; i++ {
		lo := i * maxSegment
		hi := min(lo+maxSegment, len(value))
		if err := c.file.Put(segKey(key, i), value[lo:hi]); err != nil {
			// Fail safe: whatever was written (and whatever the entry held
			// before) must read as a miss, never as a directory/file
			// mismatch. Callers treat a faulted insert as "not cached".
			c.abortInsert(key, i)
			if disk.IsFault(err) {
				c.stats.Degraded++
			}
			return err
		}
	}
	if !exists {
		e.locks = append(object.Unit(nil), locks...)
		at, _ := slices.BinarySearch(c.sorted, key)
		c.sorted = slices.Insert(c.sorted, at, key)
		for _, oid := range locks {
			// A lock set naming an OID twice holds one lock: the unit is
			// new, so only this loop can have put key there, last.
			if held := c.ilocks[oid]; len(held) == 0 || held[len(held)-1] != key {
				c.ilocks[oid] = append(held, key)
			}
		}
	}
	e.segs = segs
	c.dir[key] = e
	c.stats.Inserts++
	return nil
}

// abortInsert unwinds a half-done insert or replace so the entry reads
// as a miss: the `written` new segments are deleted best-effort and the
// unit (if it was cached before) leaves the directory — its old value
// is partially gone and must never be served.
func (c *Cache) abortInsert(key int64, written int) {
	if e, ok := c.dir[key]; ok {
		e.segs = written
		c.dir[key] = e
		c.drop(key) //nolint:errcheck // best effort: the insert error is already surfacing
		return
	}
	for i := 0; i < written; i++ {
		c.deleteSeg(segKey(key, i)) //nolint:errcheck // best effort
	}
}

// evictOne removes one randomly chosen unit.
func (c *Cache) evictOne() error {
	// Seed-determinism matters for reproducible experiments: a map range
	// inherits the map's randomized iteration order, so the draw indexes
	// the ascending key list — same seed, same victim.
	victim := c.sorted[c.rng.Intn(len(c.sorted))]
	c.stats.Evictions++
	return c.drop(victim)
}

// deleteSeg removes one hash-file entry. A missing entry is fine; a
// delete aborted by an injected fault leaves the entry behind as an
// orphan, counted in Stats.Orphans (CheckInvariants bounds the file
// count by it). Only non-fault errors are returned.
func (c *Cache) deleteSeg(k int64) error {
	err := c.file.Delete(k)
	switch {
	case err == nil || errors.Is(err, hashfile.ErrNotFound):
		return nil
	case disk.IsFault(err):
		c.stats.Orphans++
		return nil
	default:
		c.stats.Orphans++
		return err
	}
}

// drop removes a unit from the file, the directory and the lock table.
// The in-memory directory is always cleaned, even when hash-file
// deletes fail: a unit must never stay visible after an invalidation
// or eviction decision, or a later lookup could serve a stale value.
func (c *Cache) drop(key int64) error {
	e, ok := c.dir[key]
	if !ok {
		return nil
	}
	var firstErr error
	for i := 0; i < e.segs; i++ {
		if err := c.deleteSeg(segKey(key, i)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	delete(c.dir, key)
	if at, ok := slices.BinarySearch(c.sorted, key); ok {
		c.sorted = slices.Delete(c.sorted, at, at+1)
	}
	c.wmMu.Lock()
	delete(c.epochs, key)
	c.wmMu.Unlock()
	for _, oid := range e.locks {
		// Not found: an OID the lock set repeats, already released, or
		// the set Invalidate detached before dropping its holders.
		held := c.ilocks[oid]
		at := slices.Index(held, key)
		if at < 0 {
			continue
		}
		if len(held) == 1 {
			delete(c.ilocks, oid)
			continue
		}
		held[at] = held[len(held)-1]
		c.ilocks[oid] = held[:len(held)-1]
	}
	return firstErr
}

// Invalidate drops every cached unit holding an I-lock on the updated
// subobject, in the order the locks were taken, returning how many were
// invalidated. Each drop pays hash-file delete I/O — the invalidation
// cost that makes caching lose when Pr(UPDATE) → 1 (§5.2.1). Every
// holder leaves the directory even when a hash-file delete fails; the
// first such error is returned.
func (c *Cache) Invalidate(updated object.OID) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.ilocks[updated]
	if len(keys) == 0 {
		return 0, nil
	}
	sp := c.Obs.Start("cache.invalidate")
	defer sp.End()
	// Detach the set first: every holder goes, and drop then has nothing
	// to unlock under this OID while the loop reads the slice.
	delete(c.ilocks, updated)
	var firstErr error
	for _, k := range keys {
		if err := c.drop(k); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.stats.Invalidations += int64(len(keys))
	sp.SetAttr("fanout", int64(len(keys)))
	c.Obs.Histogram("cache.invalidation.fanout", obs.CountBuckets).Observe(float64(len(keys)))
	if firstErr != nil {
		return 0, firstErr
	}
	return len(keys), nil
}

// Clear empties the cache (between experiment configurations), highest
// hashkey first.
func (c *Cache) Clear() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.sorted) > 0 {
		if err := c.drop(c.sorted[len(c.sorted)-1]); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants verifies directory/lock-table consistency: every
// cached unit's OIDs hold an I-lock on it and vice versa, and the hash
// file agrees with the directory. Tests call this after randomized
// workloads.
func (c *Cache) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.sorted) != len(c.dir) || !slices.IsSorted(c.sorted) {
		return fmt.Errorf("cache: sorted key list holds %d keys (sorted=%v), directory %d",
			len(c.sorted), slices.IsSorted(c.sorted), len(c.dir))
	}
	wantEntries := 0
	for key, e := range c.dir {
		for _, oid := range e.locks {
			if !slices.Contains(c.ilocks[oid], key) {
				return fmt.Errorf("cache: unit %d member %v missing I-lock", key, oid)
			}
		}
		for i := 0; i < e.segs; i++ {
			if ok, err := c.file.Contains(segKey(key, i)); err != nil || !ok {
				return fmt.Errorf("cache: unit %d segment %d not in hash file (err=%v)", key, i, err)
			}
		}
		wantEntries += e.segs
	}
	for oid, held := range c.ilocks {
		if len(held) == 0 {
			return fmt.Errorf("cache: empty I-lock set kept for %v", oid)
		}
		for i, key := range held {
			if slices.Contains(held[:i], key) {
				return fmt.Errorf("cache: %v holds two I-locks on unit %d", oid, key)
			}
			e, ok := c.dir[key]
			if !ok {
				return fmt.Errorf("cache: I-lock of %v references dropped unit %d", oid, key)
			}
			if !slices.Contains(e.locks, oid) {
				return fmt.Errorf("cache: I-lock of %v on unit %d that does not contain it", oid, key)
			}
		}
	}
	c.wmMu.Lock()
	for key := range c.epochs {
		if _, ok := c.dir[key]; !ok {
			c.wmMu.Unlock()
			return fmt.Errorf("cache: materialization epoch for dropped unit %d", key)
		}
	}
	c.wmMu.Unlock()
	cnt := c.file.Count()
	if c.stats.Orphans == 0 {
		if cnt != wantEntries {
			return fmt.Errorf("cache: hash file holds %d entries, directory expects %d", cnt, wantEntries)
		}
	} else if cnt < wantEntries || cnt > wantEntries+int(c.stats.Orphans) {
		// Faulted deletes orphan entries in the file; the count may
		// exceed the directory by at most the orphan count (an orphan can
		// also be silently reclaimed by a later Put of the same key).
		return fmt.Errorf("cache: hash file holds %d entries, directory expects %d..%d (%d orphans)",
			cnt, wantEntries, wantEntries+int(c.stats.Orphans), c.stats.Orphans)
	}
	return nil
}
