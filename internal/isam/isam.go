// Package isam implements a static multi-level index (ISAM).
//
// The paper needs a secondary index on ClusterRel.OID to randomly access
// an object by OID, and notes: "In our environment there are no
// insertions or deletions, and hence the index is static. Consequently,
// it is maintained as an isam structure" (§4). The index is built once,
// bottom-up, from key-sorted entries and never reorganized. Probes walk
// one page per level.
//
// Page layout: slotted pages of fixed 16-byte entries.
//
//	leaf entry:  key int64 | page uint32 | slot uint16 | pad uint16
//	inner entry: key int64 | child uint32 | pad uint32
//
// A level's pages are chained via Next for diagnostics; the Aux word of
// every page stores the level number (0 = leaf).
package isam

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/storage"
)

const entrySize = 16

// ErrNotFound reports a probe for an absent key.
var ErrNotFound = errors.New("isam: key not found")

// Entry is one (key → record location) pair fed to Build.
type Entry struct {
	Key int64
	RID storage.RID
}

// Index is a built ISAM structure.
type Index struct {
	pool   *buffer.Pool
	root   disk.PageID
	levels int
}

// Build constructs the index from entries, which are sorted in place by
// key. Duplicate keys are permitted; Probe returns the first.
func Build(pool *buffer.Pool, entries []Entry) (*Index, error) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	idx := &Index{pool: pool}

	// Leaf level.
	type pageInfo struct {
		id  disk.PageID
		low int64 // first key on the page
	}
	var level []pageInfo
	var curID disk.PageID
	var cur storage.Page
	var prevID disk.PageID
	flush := func() {
		if curID != disk.InvalidPageID {
			pool.Unpin(curID, true)
		}
	}
	newPage := func(lv int) error {
		id, buf, err := pool.NewPage()
		if err != nil {
			return err
		}
		pg := storage.Page{Buf: buf}
		pg.Init(storage.TypeISAM)
		pg.SetAux(uint64(lv))
		if prevID != disk.InvalidPageID {
			pg.SetPrev(prevID)
		}
		curID, cur = id, pg
		return nil
	}
	if err := newPage(0); err != nil {
		return nil, err
	}
	if len(entries) > 0 {
		level = append(level, pageInfo{curID, entries[0].Key})
	} else {
		level = append(level, pageInfo{curID, 0})
	}
	for _, e := range entries {
		var rec [entrySize]byte
		binary.LittleEndian.PutUint64(rec[:], uint64(e.Key))
		binary.LittleEndian.PutUint32(rec[8:], uint32(e.RID.Page))
		binary.LittleEndian.PutUint16(rec[12:], e.RID.Slot)
		if _, err := cur.Insert(rec[:]); err != nil {
			if !errors.Is(err, storage.ErrPageFull) {
				flush()
				return nil, err
			}
			prev := curID
			flush()
			prevID = prev
			if err := newPage(0); err != nil {
				return nil, err
			}
			// Link the previous page forward.
			pb, perr := pool.Pin(prev)
			if perr != nil {
				flush()
				return nil, perr
			}
			storage.Page{Buf: pb}.SetNext(curID)
			pool.Unpin(prev, true)
			level = append(level, pageInfo{curID, e.Key})
			if _, err := cur.Insert(rec[:]); err != nil {
				flush()
				return nil, err
			}
		}
	}
	flush()
	curID = disk.InvalidPageID

	// Upper levels: repeat until a single page remains.
	lv := 1
	for len(level) > 1 {
		var next []pageInfo
		prevID = disk.InvalidPageID
		if err := newPage(lv); err != nil {
			return nil, err
		}
		next = append(next, pageInfo{curID, level[0].low})
		for _, child := range level {
			var rec [entrySize]byte
			binary.LittleEndian.PutUint64(rec[:], uint64(child.low))
			binary.LittleEndian.PutUint32(rec[8:], uint32(child.id))
			if _, err := cur.Insert(rec[:]); err != nil {
				if !errors.Is(err, storage.ErrPageFull) {
					flush()
					return nil, err
				}
				prev := curID
				flush()
				prevID = prev
				if err := newPage(lv); err != nil {
					return nil, err
				}
				pb, perr := pool.Pin(prev)
				if perr != nil {
					flush()
					return nil, perr
				}
				storage.Page{Buf: pb}.SetNext(curID)
				pool.Unpin(prev, true)
				next = append(next, pageInfo{curID, child.low})
				if _, err := cur.Insert(rec[:]); err != nil {
					flush()
					return nil, err
				}
			}
		}
		flush()
		curID = disk.InvalidPageID
		level = next
		lv++
	}
	idx.root = level[0].id
	idx.levels = lv
	return idx, nil
}

// Probe returns the RID of the first entry with exactly key.
func (x *Index) Probe(key int64) (storage.RID, error) {
	id := x.root
	for lv := x.levels - 1; lv >= 1; lv-- {
		buf, err := x.pool.Pin(id)
		if err != nil {
			return storage.RID{}, err
		}
		pg := storage.Page{Buf: buf}
		pos := upperBound(pg, key) - 1
		if pos < 0 {
			x.pool.Unpin(id, false)
			return storage.RID{}, fmt.Errorf("%w: %d (below index range)", ErrNotFound, key)
		}
		rec, err := pg.Record(pos)
		if err != nil {
			x.pool.Unpin(id, false)
			return storage.RID{}, err
		}
		child := disk.PageID(binary.LittleEndian.Uint32(rec[8:]))
		x.pool.Unpin(id, false)
		id = child
	}
	buf, err := x.pool.Pin(id)
	if err != nil {
		return storage.RID{}, err
	}
	pg := storage.Page{Buf: buf}
	pos := lowerBound(pg, key)
	if pos >= pg.NumSlots() {
		x.pool.Unpin(id, false)
		return storage.RID{}, fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	rec, err := pg.Record(pos)
	if err != nil {
		x.pool.Unpin(id, false)
		return storage.RID{}, err
	}
	k := int64(binary.LittleEndian.Uint64(rec))
	if k != key {
		x.pool.Unpin(id, false)
		return storage.RID{}, fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	rid := storage.RID{
		Page: disk.PageID(binary.LittleEndian.Uint32(rec[8:])),
		Slot: binary.LittleEndian.Uint16(rec[12:]),
	}
	x.pool.Unpin(id, false)
	return rid, nil
}

// ProbeBatch probes many keys, returning one RID per key in input
// order. It is a plain Probe loop, costing exactly what the loop costs:
// the static index's top levels stay buffered, so batching saves
// nothing on the index itself. No strategy calls it; it stays for the
// benchmark driver's per-layer probe (isam.probebatch_ns_per_key).
func (x *Index) ProbeBatch(keys []int64) ([]storage.RID, error) {
	rids := make([]storage.RID, len(keys))
	for i, k := range keys {
		rid, err := x.Probe(k)
		if err != nil {
			return nil, err
		}
		rids[i] = rid
	}
	return rids, nil
}

// lowerBound returns the first slot with key ≥ k.
func lowerBound(pg storage.Page, k int64) int {
	lo, hi := 0, pg.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		rec, err := pg.Record(mid)
		if err != nil {
			panic(fmt.Sprintf("isam: corrupt page: %v", err))
		}
		if int64(binary.LittleEndian.Uint64(rec)) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first slot with key > k.
func upperBound(pg storage.Page, k int64) int {
	lo, hi := 0, pg.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		rec, err := pg.Record(mid)
		if err != nil {
			panic(fmt.Sprintf("isam: corrupt page: %v", err))
		}
		if int64(binary.LittleEndian.Uint64(rec)) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
