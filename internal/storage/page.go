// Package storage defines the on-page layout used by every access
// method: a classic slotted page with a fixed header, a slot directory
// growing from the front and record bodies growing from the back.
//
// Layout of a page (all integers little-endian):
//
//	offset 0  : uint8  page type
//	offset 1  : uint8  flags (unused)
//	offset 2  : uint16 slot count
//	offset 4  : uint16 free-space pointer (offset of lowest record byte)
//	offset 6  : uint16 spare
//	offset 8  : uint32 next page id (chains; access-method specific)
//	offset 12 : uint32 prev page id
//	offset 16 : uint64 aux (access-method specific, e.g. key counts)
//	offset 24 : slot directory; slot i at 24+4i = {uint16 off, uint16 len}
//	...
//	records packed downward from PageSize
//
// A slot with off == 0 is a dead (deleted) slot; record offsets are
// always ≥ headerSize so 0 is unambiguous.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"corep/internal/disk"
)

// PageType tags what an access method stores in a page.
type PageType uint8

// Page types used across the access methods. Every page header stores
// one, so the numbers are an on-disk format and never shift; the blank
// ones are tags nothing writes.
const (
	_           PageType = iota // 0: uninitialised
	TypeHeap                    // heap-file data page
	TypeBTLeaf                  // B+tree leaf
	TypeBTInner                 // B+tree internal node
	TypeISAM                    // ISAM index level page
	_                           // 5: hash file directory page, unused
	TypeHashBkt                 // hash file bucket page
	_                           // 7: per-relation metadata page, unused
)

const (
	headerSize = 24
	slotSize   = 4
)

// ErrPageFull reports that a record does not fit in the page's free space.
var ErrPageFull = errors.New("storage: page full")

// ErrBadSlot reports access to a nonexistent or deleted slot.
var ErrBadSlot = errors.New("storage: bad slot")

// Page wraps a PageSize byte buffer with slotted-page accessors. The
// buffer is owned by the buffer pool frame; Page itself is a cheap view.
type Page struct {
	Buf []byte
}

// Init formats the buffer as an empty page of type t.
func (p Page) Init(t PageType) {
	for i := range p.Buf {
		p.Buf[i] = 0
	}
	p.Buf[0] = byte(t)
	p.setFreePtr(uint16(len(p.Buf)))
}

// Type returns the page's type tag.
func (p Page) Type() PageType { return PageType(p.Buf[0]) }

// NumSlots returns the slot-directory length, including dead slots.
func (p Page) NumSlots() int { return int(binary.LittleEndian.Uint16(p.Buf[2:])) }

func (p Page) setNumSlots(n int) { binary.LittleEndian.PutUint16(p.Buf[2:], uint16(n)) }

func (p Page) freePtr() uint16     { return binary.LittleEndian.Uint16(p.Buf[4:]) }
func (p Page) setFreePtr(v uint16) { binary.LittleEndian.PutUint16(p.Buf[4:], v) }

// Next returns the next-page pointer of the chain this page belongs to.
func (p Page) Next() disk.PageID { return disk.PageID(binary.LittleEndian.Uint32(p.Buf[8:])) }

// SetNext stores the next-page pointer.
func (p Page) SetNext(id disk.PageID) { binary.LittleEndian.PutUint32(p.Buf[8:], uint32(id)) }

// Prev returns the previous-page pointer of the chain.
func (p Page) Prev() disk.PageID { return disk.PageID(binary.LittleEndian.Uint32(p.Buf[12:])) }

// SetPrev stores the previous-page pointer.
func (p Page) SetPrev(id disk.PageID) { binary.LittleEndian.PutUint32(p.Buf[12:], uint32(id)) }

// Aux returns the 64-bit access-method-specific header word.
func (p Page) Aux() uint64 { return binary.LittleEndian.Uint64(p.Buf[16:]) }

// SetAux stores the access-method-specific header word.
func (p Page) SetAux(v uint64) { binary.LittleEndian.PutUint64(p.Buf[16:], v) }

// FreeSpace returns the bytes available for one more record plus its slot.
func (p Page) FreeSpace() int {
	used := headerSize + p.NumSlots()*slotSize
	free := int(p.freePtr()) - used - slotSize
	if free < 0 {
		return 0
	}
	return free
}

func (p Page) slot(i int) (off, ln uint16) {
	base := headerSize + i*slotSize
	return binary.LittleEndian.Uint16(p.Buf[base:]), binary.LittleEndian.Uint16(p.Buf[base+2:])
}

func (p Page) setSlot(i int, off, ln uint16) {
	base := headerSize + i*slotSize
	binary.LittleEndian.PutUint16(p.Buf[base:], off)
	binary.LittleEndian.PutUint16(p.Buf[base+2:], ln)
}

// Insert appends rec to the page, returning its slot number.
func (p Page) Insert(rec []byte) (int, error) { return p.InsertParts(rec, nil) }

// InsertParts appends the record head|tail to the page, returning its
// slot number: a caller that frames a header before a payload (the hash
// file's key|value) writes both straight into the page and builds no
// joined copy first.
func (p Page) InsertParts(head, tail []byte) (int, error) {
	ln := len(head) + len(tail)
	if ln > p.FreeSpace() {
		return 0, ErrPageFull
	}
	n := p.NumSlots()
	off := p.freePtr() - uint16(ln)
	copy(p.Buf[off:], head)
	copy(p.Buf[int(off)+len(head):], tail)
	p.setSlot(n, off, uint16(ln))
	p.setFreePtr(off)
	p.setNumSlots(n + 1)
	return n, nil
}

// InsertAt inserts rec so that it occupies slot i, shifting slots i and
// above up by one. Access methods that keep slots in key order (B+tree,
// ISAM) use this; record bodies never move, only directory entries.
func (p Page) InsertAt(i int, rec []byte) error {
	n := p.NumSlots()
	if i < 0 || i > n {
		return fmt.Errorf("%w: insert at %d of %d", ErrBadSlot, i, n)
	}
	if len(rec) > p.FreeSpace() {
		return ErrPageFull
	}
	off := p.freePtr() - uint16(len(rec))
	copy(p.Buf[off:], rec)
	p.setFreePtr(off)
	// Shift slot directory entries [i, n) up one position.
	base := headerSize + i*slotSize
	end := headerSize + n*slotSize
	copy(p.Buf[base+slotSize:end+slotSize], p.Buf[base:end])
	p.setSlot(i, off, uint16(len(rec)))
	p.setNumSlots(n + 1)
	return nil
}

// RemoveAt deletes slot i and closes the directory gap (record body
// space is not reclaimed). Ordered access methods use this during splits.
func (p Page) RemoveAt(i int) error {
	n := p.NumSlots()
	if i < 0 || i >= n {
		return fmt.Errorf("%w: remove at %d of %d", ErrBadSlot, i, n)
	}
	base := headerSize + i*slotSize
	end := headerSize + n*slotSize
	copy(p.Buf[base:], p.Buf[base+slotSize:end])
	p.setNumSlots(n - 1)
	return nil
}

// Compact rewrites the page so that only live records remain, packed at
// the back, preserving slot order (dead slots leave the directory, so
// live records are renumbered). B-tree leaves reclaim space with it
// before a split, and the outside cache's hash file on nearly every
// insert: at capacity each insert follows an eviction or invalidation
// that left a dead slot in a full bucket. It rebuilds the page from a
// snapshot on the stack and allocates nothing.
func (p Page) Compact() {
	var snap [disk.PageSize]byte
	old := Page{Buf: snap[:copy(snap[:], p.Buf)]}
	p.Init(old.Type())
	p.SetNext(old.Next())
	p.SetPrev(old.Prev())
	p.SetAux(old.Aux())
	// Not LiveRecords: a slice handed to a callback is assumed to escape,
	// which would move the snapshot to the heap.
	for i, n := 0, old.NumSlots(); i < n; i++ {
		off, ln := old.slot(i)
		if off == 0 {
			continue
		}
		if _, err := p.Insert(old.Buf[off : off+ln]); err != nil {
			panic("storage: compact overflow") // cannot happen: same records, fresh page
		}
	}
}

// Record returns the record in slot i. The returned slice aliases the
// page buffer; callers must copy it before unpinning the page.
func (p Page) Record(i int) ([]byte, error) {
	if i < 0 || i >= p.NumSlots() {
		return nil, fmt.Errorf("%w: slot %d of %d", ErrBadSlot, i, p.NumSlots())
	}
	off, ln := p.slot(i)
	if off == 0 {
		return nil, fmt.Errorf("%w: slot %d deleted", ErrBadSlot, i)
	}
	return p.Buf[off : off+ln], nil
}

// Delete marks slot i dead. The record's space is reclaimed only by a
// later Compact, which the access method calls when an insert finds the
// page full.
func (p Page) Delete(i int) error {
	if i < 0 || i >= p.NumSlots() {
		return fmt.Errorf("%w: slot %d of %d", ErrBadSlot, i, p.NumSlots())
	}
	p.setSlot(i, 0, 0)
	return nil
}

// Update replaces the record in slot i. An update that fits in the
// record's current space is done in place (the paper's updates modify
// tuples "in place"); a larger record is re-inserted if it fits in the
// page's free space.
func (p Page) Update(i int, rec []byte) error {
	if i < 0 || i >= p.NumSlots() {
		return fmt.Errorf("%w: slot %d of %d", ErrBadSlot, i, p.NumSlots())
	}
	off, ln := p.slot(i)
	if off == 0 {
		return fmt.Errorf("%w: slot %d deleted", ErrBadSlot, i)
	}
	if len(rec) <= int(ln) {
		copy(p.Buf[off:], rec)
		p.setSlot(i, off, uint16(len(rec)))
		return nil
	}
	if len(rec) > p.FreeSpace()+slotSize { // reuses existing slot, no new slot needed
		return ErrPageFull
	}
	noff := p.freePtr() - uint16(len(rec))
	copy(p.Buf[noff:], rec)
	p.setSlot(i, noff, uint16(len(rec)))
	p.setFreePtr(noff)
	return nil
}

// LiveRecords calls fn for every non-deleted slot in order. fn's record
// slice aliases the page buffer.
func (p Page) LiveRecords(fn func(slot int, rec []byte) bool) {
	for i := 0; i < p.NumSlots(); i++ {
		off, ln := p.slot(i)
		if off == 0 {
			continue
		}
		if !fn(i, p.Buf[off:off+ln]) {
			return
		}
	}
}

// Head reads, in place, the little-endian uint64 and uint32 that begin
// the record in slot i: a B-tree entry's key and sequence number. ok is
// false for a slot out of range, a dead one, or a record shorter than
// 12 bytes.
func (p Page) Head(i int) (u64 uint64, u32 uint32, ok bool) {
	if uint(i) < uint(p.NumSlots()) {
		if off, ln := p.slot(i); off != 0 && ln >= 12 {
			return binary.LittleEndian.Uint64(p.Buf[off:]), binary.LittleEndian.Uint32(p.Buf[off+8:]), true
		}
	}
	return 0, 0, false
}

// int64Rec is the space one int64 record takes: its 8 bytes and its slot.
const int64Rec = 8 + slotSize

// Int64sPerPage is how many 8-byte records an empty page holds.
const Int64sPerPage = (disk.PageSize - headerSize) / int64Rec

// InsertInt64s stores the leading values of vs that fit in the page,
// each as its own 8-byte little-endian record, and returns how many it
// stored. The page it leaves is byte for byte the one that many Insert
// calls leave.
func (p Page) InsertInt64s(vs []int64) int {
	n, free := p.NumSlots(), int(p.freePtr())
	k := min(len(vs), max(0, free-headerSize-n*slotSize)/int64Rec)
	for j, v := range vs[:k] {
		free -= 8
		binary.LittleEndian.PutUint64(p.Buf[free:], uint64(v))
		p.setSlot(n+j, uint16(free), 8)
	}
	p.setFreePtr(uint16(free))
	p.setNumSlots(n + k)
	return k
}

// AppendInt64s appends the value of every live record, each an 8-byte
// little-endian int64, to dst in slot order. A live record of any other
// length is an ErrBadSlot error, returned with the values before it.
func (p Page) AppendInt64s(dst []int64) ([]int64, error) {
	for i, n := 0, p.NumSlots(); i < n; i++ {
		off, ln := p.slot(i)
		if off == 0 {
			continue
		}
		if ln != 8 || int(off)+8 > len(p.Buf) {
			return dst, fmt.Errorf("%w: slot %d holds %d bytes at %d, not an int64", ErrBadSlot, i, ln, off)
		}
		dst = append(dst, int64(binary.LittleEndian.Uint64(p.Buf[off:])))
	}
	return dst, nil
}

// RID is a record identifier: a page and a slot within it.
type RID struct {
	Page disk.PageID
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }
