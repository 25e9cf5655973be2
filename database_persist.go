package corep

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"corep/internal/btree"
	"corep/internal/buffer"
	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/engine"
	"corep/internal/tuple"
	"corep/internal/wal"
)

// File-backed persistence for the object API: the page file holds every
// relation's pages; a sidecar JSON file holds the out-of-page metadata
// (schemas, roots, counters). Checkpoint writes both; OpenDatabaseFile
// reopens them. The cache is derived data and is not persisted —
// re-enable it after reopening and it warms up again.
//
// Durability model. Two regimes, chosen by whether EnableWAL was
// called (see database_wal.go and DESIGN.md §12):
//
//   - WAL off (the default): checkpoint consistency. Close/Checkpoint
//     leave the page file and sidecar mutually consistent; a process
//     that dies between checkpoints may leave pages newer than the
//     metadata describes, and updates since the last Checkpoint are
//     simply gone. Treat the last successful Checkpoint as the durable
//     state. This is the regime of the paper's experiments — none of
//     them involve crashes — and it costs zero extra I/O.
//
//   - WAL on: commit consistency. Every mutation's page images and a
//     commit record are fsynced to <path>.wal before the mutation is
//     acknowledged; the buffer pool's no-steal gate keeps uncaptured
//     pages off the page file. OpenDatabaseFile replays the log —
//     committed batches are redone into the page file, a torn or
//     uncommitted tail is discarded — so every acknowledged commit
//     survives a kill, and a torn page-file write is healed by its
//     logged image. Checkpoint remains the log-truncation point.
//
// In both regimes Checkpoint orders its writes so that a crash *during*
// the checkpoint is safe: the page file is synced before the sidecar is
// replaced (never a sidecar describing pages that aren't durable), the
// sidecar is written to a temp file, fsynced, renamed into place, and
// the directory fsynced (never a half-written sidecar at the final
// name), and only then is the WAL truncated (the log stays the
// authority until its effects are durable elsewhere).

// metaVersion identifies the sidecar format.
const metaVersion = 1

type fieldMeta struct {
	Name  string
	Kind  uint8
	Width int
	Child bool
}

type relMeta struct {
	Name   string
	ID     uint16
	Fields []fieldMeta
	BTree  btree.State
}

type dbMeta struct {
	Version   int
	Relations []relMeta
	// Placements is the adaptive-clustering placement map
	// (reclust.EncodePlacements), absent while nothing is placed.
	Placements []byte `json:",omitempty"`
}

// OpenDatabaseFile opens (creating if needed) a file-backed database at
// path. The sidecar metadata lives at path + ".meta". Call Checkpoint
// to persist and Close when done.
func OpenDatabaseFile(path string, bufferPages int) (*Database, error) {
	if bufferPages <= 0 {
		bufferPages = buffer.DefaultPoolSize
	}
	fd, err := disk.OpenFile(path)
	if err != nil {
		return nil, err
	}
	pool := buffer.New(fd, bufferPages)
	d := newDatabase(engine.New(fd, pool))
	d.file, d.meta, d.walPath = fd, path+".meta", path+".wal"

	// Crash recovery: a non-empty WAL means the last process died with
	// acknowledged commits not yet checkpointed. Replay it into the page
	// file (and sidecar) before reading either.
	if fi, err := os.Stat(d.walPath); err == nil && fi.Size() > 0 {
		dev, err := wal.OpenFileDevice(d.walPath)
		if err != nil {
			fd.Close()
			return nil, err
		}
		res, err := recoverWAL(fd, dev, d.meta)
		dev.Close()
		if err != nil {
			fd.Close()
			return nil, fmt.Errorf("corep: WAL recovery of %s: %w", d.walPath, err)
		}
		d.walRecovery = res
	}

	raw, err := os.ReadFile(d.meta)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return d, nil // fresh database
	case err != nil:
		fd.Close()
		return nil, err
	}
	var m dbMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		fd.Close()
		return nil, fmt.Errorf("corep: corrupt metadata %s: %w", d.meta, err)
	}
	if m.Version != metaVersion {
		fd.Close()
		return nil, fmt.Errorf("corep: metadata version %d (want %d)", m.Version, metaVersion)
	}
	for _, rm := range m.Relations {
		fields := make([]tuple.Field, len(rm.Fields))
		childAttrs := map[string]bool{}
		for i, f := range rm.Fields {
			fields[i] = tuple.Field{Name: f.Name, Kind: tuple.Kind(f.Kind), Width: f.Width}
			if f.Child {
				childAttrs[f.Name] = true
			}
		}
		schema := tuple.NewSchema(fields...)
		crel := &catalog.Relation{
			Name:   rm.Name,
			ID:     rm.ID,
			Kind:   catalog.KindBTree,
			Schema: schema,
			Tree:   btree.Open(pool, rm.BTree),
		}
		if err := d.core.Cat.Restore(crel); err != nil {
			fd.Close()
			return nil, err
		}
		d.rels[rm.Name] = &Relation{db: d, rel: crel, schema: schema, childAttrs: childAttrs}
	}
	// The placements of the last checkpoint or replayed commit: their
	// extent pages are in the page file, so reads take the packed copies
	// at once.
	if err := d.core.RestorePlacements(m.Placements); err != nil {
		fd.Close()
		return nil, fmt.Errorf("corep: corrupt metadata %s: %w", d.meta, err)
	}
	return d, nil
}

// Relation returns the handle of an existing relation — the way to get
// handles back after reopening a file-backed database.
func (d *Database) Relation(name string) (*Relation, error) {
	if r, ok := d.rels[name]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("corep: no relation %q", name)
}

// Relations lists the database's relation names.
func (d *Database) Relations() []string {
	out := make([]string, 0, len(d.rels))
	for n := range d.rels {
		out = append(out, n)
	}
	return out
}

// Checkpoint flushes every dirty page, syncs the page file, and
// atomically replaces the metadata sidecar — in that order, so a crash
// mid-checkpoint can never leave a sidecar describing pages that are
// not durable, or a torn sidecar at the final name. With the WAL on it
// also truncates the log (last, once its effects are durable
// elsewhere). Only meaningful for file-backed databases.
func (d *Database) Checkpoint() error {
	if d.file == nil {
		return errors.New("corep: Checkpoint on an in-memory database")
	}
	if err := d.core.Flush(); err != nil {
		return err
	}
	if err := d.file.Sync(); err != nil {
		return err
	}
	placements := d.core.PlacementBlob()
	raw, err := json.MarshalIndent(d.buildMeta(placements), "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(d.meta, raw); err != nil {
		return err
	}
	if d.core.Log() != nil {
		compact, err := d.metaJSON(placements)
		if err != nil {
			return err
		}
		d.lastMetaJSON = compact
		return d.core.TruncateLog()
	}
	return nil
}

// writeFileAtomic replaces path with data crash-safely: write to a temp
// file, fsync it, rename over path, fsync the directory (the rename
// itself is metadata that must reach the disk).
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	if err := dir.Sync(); err != nil {
		dir.Close()
		return err
	}
	return dir.Close()
}

// Close checkpoints and closes a file-backed database (no-op pool drop
// for in-memory databases).
func (d *Database) Close() error {
	if d.file == nil {
		return nil
	}
	err := d.Checkpoint()
	if l := d.core.DetachLog(); l != nil {
		if werr := l.Close(); err == nil {
			err = werr
		}
	}
	if err != nil {
		d.file.Close()
		return err
	}
	return d.file.Close()
}
