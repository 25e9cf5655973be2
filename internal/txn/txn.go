// Package txn is the epoch-stamped version layer that makes concurrent
// serving write-scalable: updates install new ret1 versions in a
// sharded in-memory store under short per-object latches and publish
// them with a single atomic epoch bump, while retrieves pin a snapshot
// epoch and overlay the newest version at or under it — no shared
// read/write latch anywhere on the read path.
//
// The protocol (DESIGN.md §11):
//
//   - published is the newest visible epoch. Begin() loads it once;
//     everything a snapshot reads is the state as of that epoch.
//   - An update latches its targets' shards (sorted, deduplicated —
//     no deadlocks), stages the new values, then commits: under a
//     short store-wide commitMu it takes e = published+1, inserts the
//     versions stamped e, runs the caller's pre-publish hook (cache
//     watermarks), and stores published = e. Versions inserted before
//     the publish are invisible — every live snapshot has epoch < e —
//     so readers never see a half-installed batch.
//   - The per-object latches serialize write-write conflicts only;
//     they are striped by the same hash as the version shards and
//     contended acquisitions are counted per shard.
//   - Drain applies the newest version of every object (deterministic
//     OID order) and empties the store — the phase-reconciliation step
//     that folds the overlay back into the base layout once the
//     serving burst has quiesced.
//
// The base relations are never written while versions are live, so
// single-threaded runs (every figure cell) bypass this package
// entirely and stay bit-identical.
package txn

import (
	"sort"
	"sync"
	"sync/atomic"

	"corep/internal/object"
)

// DefaultShards is the version-map/latch stripe count.
const DefaultShards = 64

// Version is one published value of an object: the new ret1 (the only
// field the paper's update queries modify) stamped with its epoch.
type Version struct {
	Epoch uint64
	Val   int64
}

// shard is one stripe of the version map plus its write latch. The
// RWMutex guards the map only (reads hold it for one chain walk); the
// latch serializes updates whose targets hash here and is held across
// the whole stage/commit of an update.
type shard struct {
	mu sync.RWMutex
	m  map[object.OID][]Version // chains, newest first

	latch      sync.Mutex
	latchWaits atomic.Int64 // contended latch acquisitions
	hits       atomic.Int64 // snapshot reads answered from a chain
}

// Store is the version store shared by every client of one database.
type Store struct {
	published atomic.Uint64
	commitMu  sync.Mutex
	shards    []shard

	active    atomic.Int64 // live (unreleased) snapshots
	snapshots atomic.Int64 // Begin calls — "snapshot reads" of the op mix
	installed atomic.Int64 // versions installed
	commits   atomic.Int64
	aborts    atomic.Int64
	drained   atomic.Int64
}

// New creates a store with nshards stripes (<= 0 means DefaultShards).
func New(nshards int) *Store {
	if nshards <= 0 {
		nshards = DefaultShards
	}
	s := &Store{shards: make([]shard, nshards)}
	for i := range s.shards {
		s.shards[i].m = make(map[object.OID][]Version)
	}
	return s
}

// shardOf hashes an OID onto a stripe (Fibonacci hashing: child keys
// are dense small integers, so a plain modulus would leave most
// stripes cold).
func (s *Store) shardOf(oid object.OID) int {
	h := uint64(oid) * 0x9E3779B97F4A7C15
	return int(h % uint64(len(s.shards)))
}

// Snapshot is one pinned read epoch. The zero of *Snapshot (nil) is a
// valid "no overlay" snapshot: Read always misses and Release is a
// no-op, so single-threaded callers pass nil and pay nothing.
type Snapshot struct {
	store    *Store
	epoch    uint64
	released bool
}

// Begin pins a snapshot at the current published epoch.
func (s *Store) Begin() *Snapshot {
	s.snapshots.Add(1)
	s.active.Add(1)
	return &Snapshot{store: s, epoch: s.published.Load()}
}

// Epoch returns the pinned epoch (0 for a nil snapshot).
func (sn *Snapshot) Epoch() uint64 {
	if sn == nil {
		return 0
	}
	return sn.epoch
}

// Read returns the newest version of oid at or under the snapshot
// epoch. ok=false means no version qualifies and the base value
// stands. Nil-safe.
func (sn *Snapshot) Read(oid object.OID) (int64, bool) {
	if sn == nil {
		return 0, false
	}
	sh := &sn.store.shards[sn.store.shardOf(oid)]
	sh.mu.RLock()
	chain := sh.m[oid]
	for _, v := range chain {
		if v.Epoch <= sn.epoch {
			sh.mu.RUnlock()
			sh.hits.Add(1)
			return v.Val, true
		}
	}
	sh.mu.RUnlock()
	return 0, false
}

// Release unpins the snapshot. Idempotent; nil-safe.
func (sn *Snapshot) Release() {
	if sn == nil || sn.released {
		return
	}
	sn.released = true
	sn.store.active.Add(-1)
}

// Update is one in-flight update: its target stripes stay latched from
// BeginUpdate until Commit or Abort, so concurrent updates to the same
// objects serialize while everything else proceeds.
type Update struct {
	store   *Store
	stripes []int
	pending []staged
	done    bool
}

type staged struct {
	oid object.OID
	val int64
}

// BeginUpdate latches the write stripes of targets (sorted and
// deduplicated, so two updates with overlapping target sets can never
// deadlock) and returns the staging handle.
func (s *Store) BeginUpdate(targets []object.OID) *Update {
	seen := make(map[int]bool, len(targets))
	stripes := make([]int, 0, len(targets))
	for _, oid := range targets {
		if i := s.shardOf(oid); !seen[i] {
			seen[i] = true
			stripes = append(stripes, i)
		}
	}
	sort.Ints(stripes)
	for _, i := range stripes {
		sh := &s.shards[i]
		if !sh.latch.TryLock() {
			sh.latchWaits.Add(1)
			sh.latch.Lock()
		}
	}
	return &Update{store: s, stripes: stripes, pending: make([]staged, 0, len(targets))}
}

// Stage records one new value. Staging the same OID twice keeps the
// later value on top of the chain — last writer wins, matching the
// in-place apply order of the base layouts.
func (u *Update) Stage(oid object.OID, val int64) {
	u.pending = append(u.pending, staged{oid: oid, val: val})
}

// Commit publishes the staged versions as one new epoch and releases
// the latches. mark, when non-nil, runs inside the publish critical
// section with the new epoch, before it becomes visible — the hook the
// cache uses to advance invalidation watermarks so no snapshot at or
// past the epoch can hit a stale entry. Returns the published epoch.
func (u *Update) Commit(mark func(epoch uint64)) uint64 {
	s := u.store
	s.commitMu.Lock()
	e := s.published.Load() + 1
	for _, p := range u.pending {
		sh := &s.shards[s.shardOf(p.oid)]
		sh.mu.Lock()
		sh.m[p.oid] = append([]Version{{Epoch: e, Val: p.val}}, sh.m[p.oid]...)
		sh.mu.Unlock()
	}
	if mark != nil {
		mark(e)
	}
	s.published.Store(e)
	s.commitMu.Unlock()
	u.unlatch()
	s.commits.Add(1)
	s.installed.Add(int64(len(u.pending)))
	return e
}

// Abort discards the staged versions and releases the latches.
func (u *Update) Abort() {
	if u.done {
		return
	}
	u.unlatch()
	u.store.aborts.Add(1)
}

func (u *Update) unlatch() {
	if u.done {
		return
	}
	u.done = true
	for i := len(u.stripes) - 1; i >= 0; i-- {
		u.store.shards[u.stripes[i]].latch.Unlock()
	}
}

// Pending returns how many objects hold undrained versions.
func (s *Store) Pending() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Drain applies the newest version of every object through apply, in
// ascending OID order (deterministic for a given version set), and
// empties the store. The caller must have quiesced concurrent use —
// drain is the post-burst reconciliation step, not an online path. An
// apply error aborts the drain; already-applied objects stay applied
// and the rest are lost, so callers treat it as fatal for the run.
func (s *Store) Drain(apply func(oid object.OID, val int64) error) (int, error) {
	var items []staged
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for oid, chain := range sh.m {
			items = append(items, staged{oid: oid, val: chain[0].Val})
		}
		sh.m = make(map[object.OID][]Version)
		sh.mu.Unlock()
	}
	sort.Slice(items, func(i, j int) bool { return items[i].oid < items[j].oid })
	for n, it := range items {
		if err := apply(it.oid, it.val); err != nil {
			s.drained.Add(int64(n))
			return n, err
		}
	}
	s.drained.Add(int64(len(items)))
	return len(items), nil
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Published uint64 `json:"published_epoch"`
	Installed int64  `json:"versions_installed"`
	Commits   int64  `json:"commits"`
	Aborts    int64  `json:"aborts"`
	Snapshots int64  `json:"snapshot_reads"`
	Hits      int64  `json:"overlay_hits"`
	Drained   int64  `json:"drained"`
	Active    int64  `json:"active_snapshots"`
	Pending   int    `json:"pending_objects"`

	// LatchWaits[i] counts contended write-latch acquisitions on shard
	// i; Waited sums them.
	LatchWaits []int64 `json:"latch_waits_per_shard,omitempty"`
	Waited     int64   `json:"latch_waits"`
}

// Stats snapshots the counters (safe concurrently with serving).
func (s *Store) Stats() Stats {
	st := Stats{
		Published: s.published.Load(),
		Installed: s.installed.Load(),
		Commits:   s.commits.Load(),
		Aborts:    s.aborts.Load(),
		Snapshots: s.snapshots.Load(),
		Drained:   s.drained.Load(),
		Active:    s.active.Load(),
		Pending:   s.Pending(),
	}
	for i := range s.shards {
		w := s.shards[i].latchWaits.Load()
		st.Hits += s.shards[i].hits.Load()
		if w > 0 && st.LatchWaits == nil {
			st.LatchWaits = make([]int64, len(s.shards))
		}
		if st.LatchWaits != nil {
			st.LatchWaits[i] = w
		}
		st.Waited += w
	}
	return st
}
