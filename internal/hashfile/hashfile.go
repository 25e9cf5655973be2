// Package hashfile implements a static-hash file with overflow chains.
//
// The paper's Cache relation "is maintained as a hash relation, hashed
// on hashkey" (§4). A probe costs one bucket-page read in the common
// case, plus overflow-chain reads; inserts and invalidation deletes pay
// page writes. Bucket head pages are allocated contiguously at creation
// so the bucket→page mapping needs no directory I/O (INGRES static hash
// behaves the same way).
package hashfile

import (
	"encoding/binary"
	"errors"
	"fmt"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/storage"
)

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("hashfile: key not found")

// File is a static hash file mapping int64 keys to byte payloads. Keys
// are unique: Put of an existing key replaces its value. A File has no
// lock of its own (its entry count is a plain field) and callers must
// serialise it: the outside cache, the only caller in the engine, runs
// every call under its mutex.
type File struct {
	pool    *buffer.Pool
	first   disk.PageID // bucket i lives at first + i
	buckets int
	count   int
}

// Create allocates a hash file with the given bucket count.
func Create(pool *buffer.Pool, buckets int) (*File, error) {
	if buckets < 1 {
		return nil, errors.New("hashfile: buckets must be >= 1")
	}
	f := &File{pool: pool, buckets: buckets}
	for i := 0; i < buckets; i++ {
		id, buf, err := pool.NewPage()
		if err != nil {
			return nil, err
		}
		storage.Page{Buf: buf}.Init(storage.TypeHashBkt)
		pool.Unpin(id, true)
		if i == 0 {
			f.first = id
		} else if id != f.first+disk.PageID(i) {
			return nil, fmt.Errorf("hashfile: non-contiguous bucket pages (%d, want %d)", id, f.first+disk.PageID(i))
		}
	}
	return f, nil
}

// Open re-attaches to a persisted hash file from its saved state.
func Open(pool *buffer.Pool, s State) *File {
	return &File{pool: pool, first: s.First, buckets: s.Buckets, count: s.Count}
}

// State is the file's out-of-page metadata, persisted by checkpoints.
type State struct {
	First   disk.PageID
	Buckets int
	Count   int
}

// State snapshots the file for persistence.
func (f *File) State() State {
	return State{First: f.first, Buckets: f.buckets, Count: f.count}
}

// Buckets returns the bucket count.
func (f *File) Buckets() int { return f.buckets }

// Count returns the number of live entries.
func (f *File) Count() int { return f.count }

func (f *File) bucketPage(key int64) disk.PageID {
	h := fnv64(key)
	return f.first + disk.PageID(h%uint64(f.buckets))
}

// fnv64 hashes an int64 with FNV-1a.
func fnv64(key int64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(key))
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// A record is key int64 | value bytes. find returns the slot and record
// of key's entry in pg (the record aliases the page), or slot -1.
func find(pg storage.Page, key int64) (slot int, rec []byte) {
	slot = -1
	pg.LiveRecords(func(s int, r []byte) bool {
		if int64(binary.LittleEndian.Uint64(r)) != key {
			return true
		}
		slot, rec = s, r
		return false
	})
	return slot, rec
}

// Get returns a copy of key's value.
func (f *File) Get(key int64) ([]byte, error) {
	return f.AppendValue(nil, key)
}

// AppendValue appends key's value to dst straight off the pinned bucket
// page and returns the extended slice: a caller that keeps one buffer
// pays no allocation per read. A missing key is the bare ErrNotFound
// (every Put probes for one, so the miss must cost nothing to report);
// on any error dst is returned as it came.
func (f *File) AppendValue(dst []byte, key int64) ([]byte, error) {
	id := f.bucketPage(key)
	for id != disk.InvalidPageID {
		buf, err := f.pool.Pin(id)
		if err != nil {
			return dst, err
		}
		pg := storage.Page{Buf: buf}
		slot, rec := find(pg, key)
		if slot >= 0 {
			dst = append(dst, rec[8:]...)
		}
		next := pg.Next()
		f.pool.Unpin(id, false)
		if slot >= 0 {
			return dst, nil
		}
		id = next
	}
	return dst, ErrNotFound
}

// Contains reports whether key is present, with the same I/O cost as Get.
func (f *File) Contains(key int64) (bool, error) {
	_, err := f.Get(key)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Put stores value under key, replacing any existing value. Values
// larger than roughly half a page are rejected. The key and the value
// are written into the page as two parts, so no framed copy of the value
// is built on the way.
func (f *File) Put(key int64, value []byte) error {
	if 8+len(value) > disk.PageSize-128 {
		return fmt.Errorf("hashfile: value of %d bytes too large", len(value))
	}
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], uint64(key))
	// Replace semantics: drop any old entry first. The walk stays even
	// when the caller knows the key is absent: it reads the bucket's whole
	// overflow chain, and the paper's figures count those reads.
	if err := f.Delete(key); err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	id := f.bucketPage(key)
	for {
		buf, err := f.pool.Pin(id)
		if err != nil {
			return err
		}
		pg := storage.Page{Buf: buf}
		if _, err := pg.InsertParts(k[:], value); err == nil {
			f.pool.Unpin(id, true)
			f.count++
			return nil
		} else if !errors.Is(err, storage.ErrPageFull) {
			f.pool.Unpin(id, false)
			return err
		}
		// Reclaim dead-slot space before chaining a new overflow page.
		pg.Compact()
		if _, err := pg.InsertParts(k[:], value); err == nil {
			f.pool.Unpin(id, true)
			f.count++
			return nil
		}
		next := pg.Next()
		if next != disk.InvalidPageID {
			f.pool.Unpin(id, true) // compaction dirtied the page
			id = next
			continue
		}
		nid, nbuf, nerr := f.pool.NewPage()
		if nerr != nil {
			f.pool.Unpin(id, false)
			return nerr
		}
		npg := storage.Page{Buf: nbuf}
		npg.Init(storage.TypeHashBkt)
		npg.SetPrev(id)
		pg.SetNext(nid)
		f.pool.Unpin(id, true)
		if _, err := npg.InsertParts(k[:], value); err != nil {
			f.pool.Unpin(nid, true)
			return err
		}
		f.pool.Unpin(nid, true)
		f.count++
		return nil
	}
}

// Delete removes key's entry; a missing key is the bare ErrNotFound.
// The cache-invalidation path (§3.2: updates "invalidate all the
// (cached) units whose I-locks are held by the subobject") is a sequence
// of Deletes.
func (f *File) Delete(key int64) error {
	id := f.bucketPage(key)
	for id != disk.InvalidPageID {
		buf, err := f.pool.Pin(id)
		if err != nil {
			return err
		}
		pg := storage.Page{Buf: buf}
		if slot, _ := find(pg, key); slot >= 0 {
			if err := pg.Delete(slot); err != nil {
				f.pool.Unpin(id, false)
				return err
			}
			f.pool.Unpin(id, true)
			f.count--
			return nil
		}
		next := pg.Next()
		f.pool.Unpin(id, false)
		id = next
	}
	return ErrNotFound
}

// Scan calls fn for every live entry in bucket order. Values alias the
// page buffer only for the duration of the call.
func (f *File) Scan(fn func(key int64, value []byte) bool) error {
	for b := 0; b < f.buckets; b++ {
		id := f.first + disk.PageID(b)
		for id != disk.InvalidPageID {
			buf, err := f.pool.Pin(id)
			if err != nil {
				return err
			}
			pg := storage.Page{Buf: buf}
			stop := false
			pg.LiveRecords(func(_ int, rec []byte) bool {
				if !fn(int64(binary.LittleEndian.Uint64(rec)), rec[8:]) {
					stop = true
					return false
				}
				return true
			})
			next := pg.Next()
			f.pool.Unpin(id, false)
			if stop {
				return nil
			}
			id = next
		}
	}
	return nil
}
