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

	// units: hashkey → member OIDs of the cached unit (directory).
	units map[int64]object.Unit
	// sorted: the directory's hashkeys in ascending order, maintained on
	// insert and drop so an eviction draws its victim without sorting.
	sorted []int64
	// segments: hashkey → number of hash-file entries the value spans.
	segments map[int64]int
	// ilocks: subobject OID → hashkeys of cached units containing it.
	ilocks map[object.OID]map[int64]struct{}

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
		units:    make(map[int64]object.Unit),
		segments: make(map[int64]int),
		ilocks:   make(map[object.OID]map[int64]struct{}),
		wm:       make(map[object.OID]uint64),
		epochs:   make(map[int64]uint64),
	}, nil
}

// Len returns the number of cached units.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.units)
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
	_, ok := c.units[u.HashKey()]
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
	return c.LookupSnap(u, 0)
}

// LookupSnap is Lookup for a versioned reader pinned at snapshot epoch
// snap: a cached entry only hits when its value is provably current at
// that snapshot (see freshLocked). snap = 0 — the single-threaded and
// latched paths — skips the watermark check entirely, so those paths
// are byte-identical to the historic Lookup.
func (c *Cache) LookupSnap(u object.Unit, snap uint64) (value []byte, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := u.HashKey()
	segs, cached := c.segments[key]
	if !cached {
		c.stats.Misses++
		return nil, false, nil
	}
	if snap > 0 && !c.freshLocked(key, u, snap) {
		c.stats.Misses++
		c.stats.StaleRejects++
		return nil, false, nil
	}
	// Only hits open a span: misses never touch the hash file.
	sp := c.Obs.Start("cache.lookup")
	defer sp.End()
	sp.SetAttr("segments", int64(segs))
	var out []byte
	for i := 0; i < segs; i++ {
		v, err := c.file.Get(segKey(key, i))
		if err != nil {
			if disk.IsFault(err) {
				// Graceful degradation: a faulted segment turns the hit
				// into a miss. The entry is dropped so later lookups don't
				// re-probe a bad page, and the caller re-materializes the
				// unit from the base relations — same rows, more I/O.
				sp.SetAttr("degraded", 1)
				if derr := c.drop(key); derr != nil {
					return nil, false, derr
				}
				c.stats.Degraded++
				c.stats.Misses++
				return nil, false, nil
			}
			return nil, false, fmt.Errorf("cache: directory/file mismatch for key %d seg %d: %w", key, i, err)
		}
		out = append(out, v...)
	}
	c.stats.Hits++
	return out, true, nil
}

// Insert caches value for u (cache maintenance after materializing a
// unit, §3.2). If the cache is full, a random victim is evicted first —
// the paper bounds SizeCache but does not fix a policy; see the
// abl-cachesize bench for sensitivity. Inserting an already-cached unit
// refreshes its value.
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
	if _, exists := c.units[key]; !exists && len(c.units) >= c.maxUnits {
		if err := c.evictOne(); err != nil {
			return err
		}
	}
	// Replace any previous segments, then write the new ones.
	if old, exists := c.segments[key]; exists {
		for i := 0; i < old; i++ {
			if err := c.deleteSeg(segKey(key, i)); err != nil {
				c.abortInsert(key, 0)
				return err
			}
		}
	}
	segs := numSegments(len(value))
	for i := 0; i < segs; i++ {
		lo := i * maxSegment
		hi := lo + maxSegment
		if hi > len(value) {
			hi = len(value)
		}
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
	c.segments[key] = segs
	if _, exists := c.units[key]; !exists {
		c.units[key] = append(object.Unit(nil), locks...)
		at, _ := slices.BinarySearch(c.sorted, key)
		c.sorted = slices.Insert(c.sorted, at, key)
		for _, oid := range locks {
			locks := c.ilocks[oid]
			if locks == nil {
				locks = make(map[int64]struct{})
				c.ilocks[oid] = locks
			}
			locks[key] = struct{}{}
		}
	}
	c.stats.Inserts++
	return nil
}

// abortInsert unwinds a half-done insert or replace so the entry reads
// as a miss: the `written` new segments are deleted best-effort and the
// unit (if it was cached before) leaves the directory — its old value
// is partially gone and must never be served.
func (c *Cache) abortInsert(key int64, written int) {
	if _, ok := c.units[key]; ok {
		c.segments[key] = written
		c.drop(key) //nolint:errcheck // best effort: the insert error is already surfacing
		return
	}
	for i := 0; i < written; i++ {
		c.deleteSeg(segKey(key, i)) //nolint:errcheck // best effort
	}
	delete(c.segments, key)
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
	u, ok := c.units[key]
	if !ok {
		return nil
	}
	var firstErr error
	for i := 0; i < c.segments[key]; i++ {
		if err := c.deleteSeg(segKey(key, i)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	delete(c.segments, key)
	delete(c.units, key)
	if at, ok := slices.BinarySearch(c.sorted, key); ok {
		c.sorted = slices.Delete(c.sorted, at, at+1)
	}
	c.wmMu.Lock()
	delete(c.epochs, key)
	c.wmMu.Unlock()
	for _, oid := range u {
		if locks := c.ilocks[oid]; locks != nil {
			delete(locks, key)
			if len(locks) == 0 {
				delete(c.ilocks, oid)
			}
		}
	}
	return firstErr
}

// Invalidate drops every cached unit holding an I-lock on the updated
// subobject, returning how many were invalidated. Each drop pays
// hash-file delete I/O — the invalidation cost that makes caching lose
// when Pr(UPDATE) → 1 (§5.2.1).
func (c *Cache) Invalidate(updated object.OID) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	locks := c.ilocks[updated]
	if len(locks) == 0 {
		return 0, nil
	}
	sp := c.Obs.Start("cache.invalidate")
	defer sp.End()
	keys := make([]int64, 0, len(locks))
	for k := range locks {
		keys = append(keys, k)
	}
	for _, k := range keys {
		if err := c.drop(k); err != nil {
			return 0, err
		}
	}
	c.stats.Invalidations += int64(len(keys))
	sp.SetAttr("fanout", int64(len(keys)))
	c.Obs.Histogram("cache.invalidation.fanout", obs.CountBuckets).Observe(float64(len(keys)))
	return len(keys), nil
}

// Clear empties the cache (between experiment configurations).
func (c *Cache) Clear() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]int64, 0, len(c.units))
	for k := range c.units {
		keys = append(keys, k)
	}
	for _, k := range keys {
		if err := c.drop(k); err != nil {
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
	if len(c.sorted) != len(c.units) || !slices.IsSorted(c.sorted) {
		return fmt.Errorf("cache: sorted key list holds %d keys (sorted=%v), directory %d",
			len(c.sorted), slices.IsSorted(c.sorted), len(c.units))
	}
	for key, u := range c.units {
		for _, oid := range u {
			if _, ok := c.ilocks[oid][key]; !ok {
				return fmt.Errorf("cache: unit %d member %v missing I-lock", key, oid)
			}
		}
		for i := 0; i < c.segments[key]; i++ {
			if ok, err := c.file.Contains(segKey(key, i)); err != nil || !ok {
				return fmt.Errorf("cache: unit %d segment %d not in hash file (err=%v)", key, i, err)
			}
		}
	}
	for oid, locks := range c.ilocks {
		for key := range locks {
			u, ok := c.units[key]
			if !ok {
				return fmt.Errorf("cache: I-lock of %v references dropped unit %d", oid, key)
			}
			found := false
			for _, member := range u {
				if member == oid {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("cache: I-lock of %v on unit %d that does not contain it", oid, key)
			}
		}
	}
	c.wmMu.Lock()
	for key := range c.epochs {
		if _, ok := c.units[key]; !ok {
			c.wmMu.Unlock()
			return fmt.Errorf("cache: materialization epoch for dropped unit %d", key)
		}
	}
	c.wmMu.Unlock()
	wantEntries := 0
	for key := range c.units {
		wantEntries += c.segments[key]
	}
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
