package corep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"corep/internal/disk"
	"corep/internal/wal"
)

// Write-ahead logging for the object API. EnableWAL attaches a redo log
// (internal/wal) to a file-backed database and arms the buffer pool's
// no-steal gate; from then on every mutation commits through the
// core's Commit (engine.Core; see mutate in database_txn.go) *before*
// it publishes its epoch or invalidates caches. A published commit
// therefore implies a durable log record, and OpenDatabaseFile replays
// the log after a crash. What this file adds to the shared protocol is
// the facade's own recovery metadata: the JSON sidecar rides in front
// of a commit record whenever it changed.
//
// The WAL is off by default: none of the paper's experiments (Figures
// 3–7) involve durability, and with the gate disarmed the pool's
// replacement decisions and I/O counts are bit-identical to a build
// without this file.

// EnableWAL attaches a write-ahead log to a file-backed database. The
// log lives beside the page file at <path>.wal. Idempotent; returns an
// error for in-memory databases (their disk *is* process memory — there
// is nothing for a log to make durable).
func (d *Database) EnableWAL() error {
	if d.file == nil {
		return errors.New("corep: EnableWAL on an in-memory database")
	}
	if d.core.Log() != nil {
		return nil
	}
	dev, err := wal.OpenFileDevice(d.walPath)
	if err != nil {
		return err
	}
	l, err := wal.Open(dev)
	if err != nil {
		dev.Close()
		return err
	}
	return d.attachWAL(l)
}

// attachWAL wires an opened log into the commit path. Split from
// EnableWAL so tests and the crash harness can attach a log over a
// MemDevice.
func (d *Database) attachWAL(l *wal.Log) error {
	raw, err := d.metaJSON(d.core.PlacementBlob())
	if err != nil {
		l.Close()
		return err
	}
	d.lastMetaJSON = raw
	d.core.AttachLog(l)
	return nil
}

// WALStats surfaces the log's durability counters plus what the last
// recovery did (zeros when the database opened clean).
type WALStats struct {
	Appends           int64   `json:"wal_appends"`
	PageImages        int64   `json:"page_images"`
	Commits           int64   `json:"commits"`
	Fsyncs            int64   `json:"fsyncs"`
	GroupSize         float64 `json:"group_size"`
	MaxGroup          int64   `json:"max_group"`
	Truncates         int64   `json:"truncates"`
	RecoveryReplayed  int     `json:"recovery_replayed"`
	RecoveryDiscarded int     `json:"recovery_discarded"`
}

// WALStats returns the log's counters, or nil when the WAL is off.
func (d *Database) WALStats() *WALStats {
	l := d.core.Log()
	if l == nil && d.walRecovery == nil {
		return nil
	}
	out := &WALStats{}
	if l != nil {
		s := l.Stats()
		out.Appends = s.Appends
		out.PageImages = s.PageImages
		out.Commits = s.Commits
		out.Fsyncs = s.Fsyncs
		out.GroupSize = s.AvgGroup()
		out.MaxGroup = s.MaxGroup
		out.Truncates = s.Truncates
	}
	if r := d.walRecovery; r != nil {
		out.RecoveryReplayed = r.Replayed
		out.RecoveryDiscarded = r.DiscardedRecords
	}
	return out
}

// commit makes one mutation durable through the core, logging the
// sidecar metadata in front of the commit record if it changed (B-tree
// roots and sizes move with inserts, placements with Reorganize and with
// an Update that retires one). The object API mutates from one
// goroutine at a time — the in-place tree writes take no latch either —
// so lastMetaJSON needs no lock of its own. Returns the core's sequence
// number (0 with a nil error: the WAL is off; non-zero with an error:
// appended but not durable, see engine.Core.Commit).
func (d *Database) commit() (uint64, error) {
	if d.core.Log() == nil {
		return 0, nil
	}
	raw, err := d.metaJSON(d.core.PlacementBlob())
	if err != nil {
		return 0, err
	}
	meta := raw
	if bytes.Equal(raw, d.lastMetaJSON) {
		meta = nil
	}
	seq, err := d.core.Commit(meta)
	if seq != 0 && meta != nil {
		d.lastMetaJSON = raw
	}
	return seq, err
}

// metaJSON marshals the sidecar metadata compactly with relations in
// name order, so equal states yield equal bytes and commit's
// changed-check never false-positives on map iteration order.
func (d *Database) metaJSON(placements []byte) ([]byte, error) {
	return json.Marshal(d.buildMeta(placements))
}

// buildMeta assembles the sidecar metadata struct, relations sorted by
// name, around the encoded placements (the live ones, or a Reorganize
// batch's about to be published).
func (d *Database) buildMeta(placements []byte) dbMeta {
	m := dbMeta{Version: metaVersion, Placements: placements}
	names := make([]string, 0, len(d.rels))
	for name := range d.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := d.rels[name]
		rm := relMeta{Name: name, ID: r.rel.ID, BTree: r.rel.Tree.State()}
		for _, f := range r.schema.Fields {
			rm.Fields = append(rm.Fields, fieldMeta{
				Name: f.Name, Kind: uint8(f.Kind), Width: f.Width, Child: r.childAttrs[f.Name],
			})
		}
		m.Relations = append(m.Relations, rm)
	}
	return m
}

// recoverWAL replays the redo log into the page file during
// OpenDatabaseFile. Committed page images are installed with
// fd.Restore, the page file is synced, the last committed metadata
// record (if any) supersedes the sidecar, and only then is the log
// truncated — the order matters: the log must remain the authority
// until its effects are durable elsewhere.
func recoverWAL(fd *disk.FileDisk, dev wal.Device, metaPath string) (*wal.Result, error) {
	res, err := wal.Recover(dev, fd.Restore)
	if err != nil {
		return nil, err
	}
	if res.Replayed > 0 {
		if err := fd.Sync(); err != nil {
			return nil, err
		}
	}
	if res.Meta != nil {
		// Re-indent for the sidecar's on-disk convention.
		var m dbMeta
		if err := json.Unmarshal(res.Meta, &m); err != nil {
			return nil, fmt.Errorf("corep: corrupt metadata record in WAL: %w", err)
		}
		raw, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := writeFileAtomic(metaPath, raw); err != nil {
			return nil, err
		}
	}
	if err := dev.Truncate(0); err != nil {
		return nil, err
	}
	return res, nil
}

// RecoveryResult reports what OpenDatabaseFile's WAL replay did, or nil
// if the database opened without a log to replay.
func (d *Database) RecoveryResult() *wal.Result { return d.walRecovery }
