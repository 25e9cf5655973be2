package reclust

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sort"
	"sync/atomic"

	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/storage"
)

// Entry is one placement: the migrated copy of an object lives at RID
// on an extent page, clustered with Owner's group, visible to
// snapshots at or past Epoch (0 = always visible).
type Entry struct {
	RID   storage.RID
	Owner int64
	Epoch uint64
}

// Map is the epoch-versioned placement map. Readers pay one atomic
// load (the map value is immutable — every mutation installs a fresh
// copy), so the lock-free snapshot read paths stay lock-free.
// Mutations must be serialized by the caller (the reorganizer's batch
// mutex); batches amortize the copy.
type Map struct {
	v atomic.Pointer[map[object.OID]Entry]
}

// NewMap creates an empty placement map.
func NewMap() *Map {
	m := &Map{}
	empty := make(map[object.OID]Entry)
	m.v.Store(&empty)
	return m
}

// Lookup resolves oid's placement as seen by a snapshot at epoch snap.
// snap = 0 (unversioned callers) sees every entry; a versioned reader
// ignores entries published after its snapshot — the old location
// still holds the row (copy forwarding never deletes).
func (m *Map) Lookup(oid object.OID, snap uint64) (Entry, bool) {
	e, ok := (*m.v.Load())[oid]
	if !ok || (snap > 0 && e.Epoch > snap) {
		return Entry{}, false
	}
	return e, true
}

// Latest resolves oid's newest placement regardless of epoch.
func (m *Map) Latest(oid object.OID) (Entry, bool) { return m.Lookup(oid, 0) }

// Len returns the number of live placements.
func (m *Map) Len() int { return len(*m.v.Load()) }

// Publish installs entries (insert or overwrite) as one batch.
func (m *Map) Publish(entries map[object.OID]Entry) {
	if len(entries) == 0 {
		return
	}
	next := maps.Clone(*m.v.Load())
	maps.Copy(next, entries)
	m.v.Store(&next)
}

// Drop retires the placements of oids (updates that outgrow the
// migrated copy). Missing oids are ignored — a call that hits nothing
// copies nothing; returns how many entries were removed.
func (m *Map) Drop(oids []object.OID) int {
	old := *m.v.Load()
	hit := false
	for _, oid := range oids {
		if _, hit = old[oid]; hit {
			break
		}
	}
	if !hit {
		return 0
	}
	next := maps.Clone(old)
	for _, oid := range oids {
		delete(next, oid)
	}
	m.v.Store(&next)
	return len(old) - len(next)
}

// Snapshot returns a copy of the live placements (WAL metadata,
// introspection).
func (m *Map) Snapshot() map[object.OID]Entry { return maps.Clone(*m.v.Load()) }

// Replace installs entries as the entire map (crash recovery).
func (m *Map) Replace(entries map[object.OID]Entry) {
	next := make(map[object.OID]Entry, len(entries))
	maps.Copy(next, entries)
	m.v.Store(&next)
}

// Placement metadata codec: the blob a migration batch appends to the
// WAL in front of its commit record. Epochs are not persisted — after
// a crash the version store is gone and every surviving placement is
// visible to everyone.
//
// Layout: "RCP1" | u32 count | count × (u64 oid | u32 page | u16 slot
// | u64 owner), little-endian.

var placementMagic = [4]byte{'R', 'C', 'P', '1'}

const placementEntrySize = 8 + 4 + 2 + 8

// EncodePlacements serializes a placement snapshot deterministically
// (ascending OID order).
func EncodePlacements(entries map[object.OID]Entry) []byte {
	oids := make([]object.OID, 0, len(entries))
	for oid := range entries {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	buf := make([]byte, 8, 8+len(entries)*placementEntrySize)
	copy(buf, placementMagic[:])
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(entries)))
	var tmp [placementEntrySize]byte
	for _, oid := range oids {
		e := entries[oid]
		binary.LittleEndian.PutUint64(tmp[0:], uint64(oid))
		binary.LittleEndian.PutUint32(tmp[8:], uint32(e.RID.Page))
		binary.LittleEndian.PutUint16(tmp[12:], e.RID.Slot)
		binary.LittleEndian.PutUint64(tmp[14:], uint64(e.Owner))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// DecodePlacements parses a blob written by EncodePlacements. A nil or
// empty blob decodes to an empty map (no batch ever committed).
func DecodePlacements(blob []byte) (map[object.OID]Entry, error) {
	out := make(map[object.OID]Entry)
	if len(blob) == 0 {
		return out, nil
	}
	if len(blob) < 8 || [4]byte{blob[0], blob[1], blob[2], blob[3]} != placementMagic {
		return nil, fmt.Errorf("reclust: bad placement blob header")
	}
	n := int(binary.LittleEndian.Uint32(blob[4:]))
	if len(blob) != 8+n*placementEntrySize {
		return nil, fmt.Errorf("reclust: placement blob length %d != %d entries", len(blob), n)
	}
	off := 8
	for i := 0; i < n; i++ {
		oid := object.OID(binary.LittleEndian.Uint64(blob[off:]))
		e := Entry{
			RID: storage.RID{
				Page: disk.PageID(binary.LittleEndian.Uint32(blob[off+8:])),
				Slot: binary.LittleEndian.Uint16(blob[off+12:]),
			},
			Owner: int64(binary.LittleEndian.Uint64(blob[off+14:])),
		}
		out[oid] = e
		off += placementEntrySize
	}
	return out, nil
}
