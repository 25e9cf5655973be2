// Package engine is the one storage-engine core under both front ends:
// the public corep.Database facade and the generated workload.DB each
// hold a Core and add only what is genuinely theirs (typed schemas and
// a JSON sidecar; the eqn.-(1) generator and crash simulation). The
// Core owns the disk handle, buffer pool, catalog, outside cache,
// version store, attached write-ahead log and reclustering extent, and
// it is the only place the commit protocol is written (DESIGN.md §12):
//
//	mutate → Commit (capture, [meta], commit record, group sync) → Publish
//
// A mutation first changes pages in the pool, then makes them durable
// with Commit, and only then becomes visible through Publish — so a
// published epoch, an advanced cache watermark or a placement redirect
// always implies a durable log record. With no log attached Commit is a
// no-op and the pool's replacement decisions and every I/O count are
// bit-identical to an engine without this package's WAL half.
package engine

import (
	"sync"

	"corep/internal/buffer"
	"corep/internal/cache"
	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/heap"
	"corep/internal/object"
	"corep/internal/obs"
	"corep/internal/txn"
	"corep/internal/wal"
)

// Disk is what the core needs of a backend: page transfer plus counter
// reset (the in-memory and the file backend both satisfy it).
type Disk interface {
	disk.Manager
	ResetStats()
}

// pressureFrac sets how full of unlogged frames the pool may get
// between commits before Relieve forces a capture. Read-side work also
// dirties pages through the shared pool (the outside cache's hash file,
// query temporaries); without commits to drain them they would
// eventually leave eviction with no legal victim. A quarter of the pool
// leaves ample victim headroom while keeping captures infrequent.
const pressureFrac = 4

// Core is one storage engine instance. The exported fields are set once
// (New, NewCache, EnableVersioning) before concurrent use begins.
type Core struct {
	Disk Disk
	Pool *buffer.Pool
	Cat  *catalog.Catalog

	// Cache is the outside value cache; nil until NewCache.
	Cache *cache.Cache

	// Versions is the epoch version store; nil (the default) keeps the
	// in-place single-writer paths and the unversioned cache protocol
	// bit-identical. Installed by EnableVersioning.
	Versions *txn.Store

	// Obs is the observability context threaded to everything running
	// over this engine. Zero value = disabled; installed by SetObs.
	Obs obs.Ctx

	// logMu serializes captures and appends so the log sees whole
	// commits in order; seq numbers them.
	logMu sync.Mutex
	log   *wal.Log
	seq   uint64

	// pageMu guards the bytes of extent pages. A migration batch appends
	// to the same tail page whose earlier, already published rows
	// concurrent readers are fetching, and both sides touch the page
	// header and slot directory: ReadPlaced copies a row out under the
	// shared lock, appendPlaced and RewritePlaced hold it exclusively
	// for the one page mutation. Lock order: pageMu → pool shard.
	pageMu sync.RWMutex
	extent *heap.File // lazily created; reset after a crash

	// Reclust is the adaptive-clustering state (reclust.go); nil (the
	// default) keeps every read on the base rows. Installed by
	// InitReclust.
	Reclust *Reclust
}

// New assembles a core over d with an already-built pool.
func New(d Disk, pool *buffer.Pool) *Core {
	return &Core{Disk: d, Pool: pool, Cat: catalog.New(pool)}
}

// NewCache creates and installs the outside cache. Its hash file is
// derived data — rebuilt empty after any crash or reopen, never
// replayed — so its pages are exempt from write-ahead: creating the
// bucket directory can dirty more frames than a small pool holds, and
// with the no-steal gate left armed (and no commit to capture them)
// eviction would have no legal victim.
func (c *Core) NewCache(maxUnits, buckets int, seed int64) error {
	if c.Pool.NoSteal() {
		c.Pool.SetNoSteal(false)
		defer c.Pool.SetNoSteal(true)
	}
	ch, err := cache.New(c.Pool, maxUnits, buckets, seed)
	if err != nil {
		return err
	}
	ch.Obs = c.Obs
	c.Cache = ch
	return nil
}

// EnableVersioning installs the version store: updates then publish
// epochs instead of being visible the moment a page changes, and
// snapshot reads pin one. Idempotent. Call before starting concurrent
// clients.
func (c *Core) EnableVersioning() {
	if c.Versions == nil {
		c.Versions = txn.New(0)
		// Publish an empty bootstrap epoch so every versioned snapshot
		// carries epoch ≥ 1: the cache's watermark API reserves epoch 0
		// as the "unversioned caller" sentinel (LookupSnap(u, 0) is the
		// historic Lookup), and a genuine snapshot must never alias it.
		c.Versions.BeginUpdate(nil).Commit(nil)
	}
}

// Versioned reports whether EnableVersioning has installed the store.
func (c *Core) Versioned() bool { return c.Versions != nil }

// BeginUpdate latches targets' write stripes for one mutation, or
// returns nil when versioning is off — Publish accepts either.
func (c *Core) BeginUpdate(targets []object.OID) *txn.Update {
	if c.Versions == nil {
		return nil
	}
	return c.Versions.BeginUpdate(targets)
}

// SetObs installs ctx here and in the layers holding their own copy.
func (c *Core) SetObs(ctx obs.Ctx) {
	c.Obs = ctx
	c.Pool.SetObs(ctx)
	if c.Cache != nil {
		c.Cache.Obs = ctx
	}
}

// IOSnapshot is the tracer's counter source: disk I/O plus pool events.
func (c *Core) IOSnapshot() obs.IO {
	ds := c.Disk.Stats()
	ps := c.Pool.Stats()
	return obs.IO{
		Reads: ds.Reads, Writes: ds.Writes,
		Hits: ps.Hits, Misses: ps.Misses, Flushes: ps.Flushes,
	}
}

// Flush writes every dirty page back. Unlogged frames block FlushAll,
// so with a log attached they are captured first; the images are
// redundant with the flush but keep the log's redo-covers-everything
// invariant until the caller truncates it.
func (c *Core) Flush() error {
	c.logMu.Lock()
	err := c.captureLocked()
	c.logMu.Unlock()
	if err != nil {
		return err
	}
	return c.Pool.FlushAll()
}

// ResetCold flushes and empties the buffer pool and zeroes the disk
// counters: the next query starts from a cold, clean state.
func (c *Core) ResetCold() error {
	// Quiesce the prefetcher first: Invalidate refuses pinned pages, and
	// staged prefetch pages hold pins. Nil-safe no-op when prefetch is off.
	c.Pool.Prefetcher().Drain()
	if err := c.Flush(); err != nil {
		return err
	}
	if err := c.Pool.Invalidate(); err != nil {
		return err
	}
	c.Disk.ResetStats()
	return nil
}

// Close releases background resources (the prefetcher's workers). Safe
// to call twice and concurrently with running queries: in-flight scans
// fall back to synchronous reads.
func (c *Core) Close() {
	pf := c.Pool.Prefetcher()
	c.Pool.SetPrefetcher(nil)
	pf.Close()
}

// --- write-ahead log ---

// AttachLog wires an opened log into the commit path and arms the
// pool's no-steal gate.
func (c *Core) AttachLog(l *wal.Log) {
	c.logMu.Lock()
	c.log = l
	c.logMu.Unlock()
	c.Pool.SetNoSteal(true)
	// Frames already dirty carry changes the log has never seen (pages
	// touched between open/checkpoint and the attach); mark them so the
	// first commit captures them rather than letting eviction steal them.
	c.Pool.MarkDirtyUnlogged()
}

// DetachLog disarms the gate and returns the log (nil if none) for the
// caller to close or abandon.
func (c *Core) DetachLog() *wal.Log {
	c.logMu.Lock()
	l := c.log
	c.log = nil
	c.logMu.Unlock()
	c.Pool.SetNoSteal(false)
	return l
}

// Log returns the attached log, nil when logging is off.
func (c *Core) Log() *wal.Log {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return c.log
}

// Commit makes the current mutation durable: capture every unlogged
// page image, append meta (when non-nil — it becomes the recovery
// metadata if and only if this commit survives), append a commit
// record, and sync. The capture and appends run under logMu — the log
// sees whole commits in order — but the Sync runs outside it, which is
// the entire point: concurrent committers pile their commit records
// into the log and one fsync (issued by whichever caller reaches the
// device first) acknowledges them all. Call after the page mutation
// and before Publish.
//
// Returns the commit's sequence number. seq 0 with a nil error means
// no log is attached. A non-zero seq with an error means the record
// was appended but its sync failed: the commit is in doubt — it must
// not be acknowledged or published, yet recovery may still replay it —
// and the caller needs the number to recognise it if it does.
func (c *Core) Commit(meta []byte) (uint64, error) {
	c.logMu.Lock()
	l := c.log
	if l == nil {
		c.logMu.Unlock()
		return 0, nil
	}
	err := c.captureLocked()
	if err == nil && meta != nil {
		_, err = l.AppendMeta(meta)
	}
	if err != nil {
		c.logMu.Unlock()
		return 0, err
	}
	c.seq++
	seq := c.seq
	lsn, err := l.AppendCommit(seq)
	c.logMu.Unlock()
	if err != nil {
		return 0, err
	}
	return seq, l.Sync(lsn)
}

// captureLocked feeds every unlogged frame's image to the log. Caller
// holds logMu; no-op without a log.
func (c *Core) captureLocked() error {
	if c.log == nil {
		return nil
	}
	return c.Pool.CollectUnlogged(func(id disk.PageID, img []byte) error {
		_, err := c.log.AppendPage(id, img)
		return err
	})
}

// Relieve is the read paths' pressure valve: with the gate armed, cache
// and query-temporary pages dirtied between commits accumulate unlogged
// marks, and past the limit a capture (no commit record, no fsync)
// drains them so eviction always has a victim. The images ride along
// with the next commit's fsync; if the process dies first they are
// discarded by recovery's atomic-per-commit replay, which is exactly
// right — they were derived data of an unacknowledged state.
func (c *Core) Relieve() error {
	if !c.pressed() {
		return nil
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return c.captureLocked()
}

// pressed reports whether the unlogged backlog has reached the limit.
func (c *Core) pressed() bool {
	return c.Log() != nil && c.Pool.UnloggedCount() >= max(1, c.Pool.Capacity()/pressureFrac)
}

// TruncateLog empties the log — the checkpoint's last step, once the
// log's effects are durable elsewhere.
func (c *Core) TruncateLog() error {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	if c.log == nil {
		return nil
	}
	return c.log.Truncate()
}

// Publish makes a committed mutation visible and runs its
// cache-coherence protocol. Under versioning (u non-nil, its latches
// held since BeginUpdate) install and the watermark advance of oids
// happen inside the commit critical section, before the new epoch
// publishes — so a reader on an older snapshot can never re-cache or
// hit a unit covering the touched objects, and no snapshot sees half a
// batch. Nil u (versioning off, or an update that aborted) runs install
// at epoch 0. The Invalidate sweep afterwards reclaims the dead
// entries' hash-file space, paying the paper's invalidation I/O outside
// the publish lock; every oid is swept even after an error (a touched
// unit left in the cache would serve the old value) and the first error
// is returned.
func (c *Core) Publish(u *txn.Update, oids []object.OID, install func(epoch uint64)) error {
	mark := c.Cache != nil && len(oids) > 0
	switch {
	case u == nil:
		if install != nil {
			install(0)
		}
	case install == nil && !mark:
		u.Commit(nil)
	default:
		u.Commit(func(e uint64) {
			if install != nil {
				install(e)
			}
			if mark {
				c.Cache.MarkInvalid(oids, e)
			}
		})
	}
	if !mark {
		return nil
	}
	var first error
	for _, oid := range oids {
		if _, err := c.Cache.Invalidate(oid); err != nil && first == nil {
			first = err
		}
	}
	return first
}
