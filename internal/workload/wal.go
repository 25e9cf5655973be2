package workload

import (
	"fmt"
	"time"

	"corep/internal/wal"
)

// WAL support for generated databases: the crash-chaos harness drives a
// workload DB with the no-steal gate armed and an in-memory log device
// whose sync watermark models what a process kill leaves behind. The
// commit protocol itself is the core's (engine.Core.Commit / Relieve);
// this file adds only what a simulated kill needs. The workload layer
// logs page images — a workload database's structure is deterministic
// in its Config (schedules contain retrieves and updates, never
// inserts, so B-tree roots don't move) — plus, when online reclustering
// is on, the placement map as a metadata blob: placements are the one
// piece of structure the Config cannot re-derive, so each migration
// batch commits them alongside its extent page images
// (engine.Core.Migrate) and CrashAndRecover hands Result.Meta back to
// the core.

// EnableWAL attaches an in-memory write-ahead log and arms the buffer
// pool's no-steal gate. syncDelay is the simulated fsync latency (the
// knob that makes group commit measurable). Call after Build: the
// build's ResetCold leaves the pool clean, so the log starts with
// nothing owed to it.
func (db *DB) EnableWAL(syncDelay time.Duration) error {
	if db.WAL != nil {
		return fmt.Errorf("workload: WAL already enabled")
	}
	dev := wal.NewMemDevice(syncDelay)
	l, err := wal.Open(dev)
	if err != nil {
		return err
	}
	db.WAL = dev
	db.AttachLog(l)
	return nil
}

// WALRollback undoes an uncommitted mutation after a failed update:
// drop every frame (the no-steal gate guarantees uncommitted changes
// live only in frames) and redo the log's committed batches into the
// simulated disk, leaving exactly the last committed state. The cache
// is rebuilt empty — its hash file died with the frames. Callers have
// quiesced committers, so reading the device races no append.
func (db *DB) WALRollback() error {
	if db.WAL == nil {
		return fmt.Errorf("workload: rollback without a WAL")
	}
	if err := db.Pool.DropAll(); err != nil {
		return err
	}
	if _, err := wal.Recover(db.WAL, db.Disk.Restore); err != nil {
		return err
	}
	return db.rebuildCache()
}

// CrashAndRecover simulates a process kill and the subsequent reopen.
// The pool's frames die; the disk keeps whatever was written to it
// (including torn pages); the log survives as its synced prefix plus
// keepUnsynced bytes of the unsynced tail — the OS page cache's partial
// mercy, possibly cutting mid-record. Committed batches in the
// surviving log are redone into the disk; the gate is disarmed (the
// post-crash phase is verification, not logged operation) and the cache
// rebuilt empty. Returns what recovery replayed and discarded.
func (db *DB) CrashAndRecover(keepUnsynced int64) (*wal.Result, error) {
	if db.WAL == nil {
		return nil, fmt.Errorf("workload: crash without a WAL")
	}
	if err := db.Pool.DropAll(); err != nil {
		return nil, err
	}
	surviving := db.WAL.Crash(keepUnsynced)
	res, err := wal.Recover(wal.NewMemDeviceBytes(surviving), db.Disk.Restore)
	if err != nil {
		return nil, err
	}
	db.DetachLog()
	db.WAL = nil
	// Placements beyond the last committed metadata blob died with the
	// process; exactly the durable redirects come back.
	if err := db.RestorePlacements(res.Meta); err != nil {
		return nil, err
	}
	if err := db.rebuildCache(); err != nil {
		return nil, err
	}
	return res, nil
}

// rebuildCache replaces the outside cache with a fresh, empty one (same
// sizing and seed as Build's). The old hash-file pages are orphaned on
// the disk; nothing references them again.
func (db *DB) rebuildCache() error {
	if db.Cfg.CacheUnits <= 0 {
		return nil
	}
	return db.NewCache(db.Cfg.CacheUnits, cacheBuckets, db.Cfg.Seed+1)
}
