package corep

import (
	"corep/internal/object"
	"corep/internal/txn"
)

// This file wires the epoch version store (internal/txn) into the
// object API. The object API stays synchronous and in-place — a
// Relation.Update still writes the base B-tree directly — but with
// versioned serving enabled every mutation commits through the store:
// the cache's invalidation watermarks advance inside the commit
// critical section (before the epoch publishes), cached reads carry a
// pinned snapshot epoch, and the store's contention counters (commits,
// snapshot reads, aborted updates, per-shard latch waits) surface in
// Database.Snapshot() and corepquery's \stats. The serving tier
// (internal/harness) uses the same store to retire its global write
// latch entirely; see DESIGN.md §11 for the protocol.

// TxnStats mirrors the version store's counters (see txn.Stats).
type TxnStats = txn.Stats

// EnableVersionedServing attaches an epoch version store. Reads through
// RetrievePathCached then pin a snapshot epoch and cache hits are
// watermark-checked against it; updates commit under per-object latches
// with an atomic epoch bump. Idempotent.
func (d *Database) EnableVersionedServing() { d.core.EnableVersioning() }

// TxnStats returns the version store's counters (nil before
// EnableVersionedServing).
func (d *Database) TxnStats() *TxnStats {
	if !d.core.Versioned() {
		return nil
	}
	s := d.core.Versions.Stats()
	return &s
}

// beginSnapshotEpoch pins the published epoch for one cached read path.
// Without versioned serving it returns epoch 0 (the cache's historic,
// unversioned path) and a no-op release.
func (d *Database) beginSnapshotEpoch() (uint64, func()) {
	if !d.core.Versioned() {
		return 0, func() {}
	}
	snap := d.core.Versions.Begin()
	return snap.Epoch(), snap.Release
}

// mutate is the object API's write path, the core's commit protocol
// around one in-place tree write: latch locks (a no-op until
// EnableVersionedServing), write, make the write durable (a no-op until
// EnableWAL), and only then publish — the invalidation watermarks of
// locks advance inside the commit critical section before the epoch
// publishes, so snapshot readers either see the old epoch (and the
// still-valid cached unit) or the new epoch with the watermark already
// in place; without versioning, plain invalidation. A failed write or
// commit publishes nothing.
func (d *Database) mutate(locks []object.OID, write func() error) error {
	u := d.core.BeginUpdate(locks)
	err := write()
	if err == nil {
		_, err = d.commit()
	}
	if err != nil {
		if u != nil {
			u.Abort()
		}
		return err
	}
	return d.core.Publish(u, locks, nil)
}
