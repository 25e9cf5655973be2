// Package heap implements unordered page-chained heap files.
//
// Heap files back the temporary relations of the breadth-first
// strategies (§3.1 [2]: "Collect the OID's from qualifying tuples of
// group into a temporary relation temp"). Forming the temporary costs
// real page writes — the paper notes this cost makes BFS "slightly
// worse" than DFS at low NumTop — so appends go through the buffer pool
// like every other access.
package heap

import (
	"errors"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/storage"
)

// File is a heap file: a forward-linked chain of TypeHeap pages. The
// chain is mirrored in pages so Drop frees the file without reading it.
// A dropped file (pool nil) keeps its page list's memory, so a holder
// that forms one file after another in the same handle (CreateInto)
// grows each into the last one's list instead of a fresh slice.
type File struct {
	pool  *buffer.Pool // nil once dropped
	first disk.PageID
	last  disk.PageID
	pages []disk.PageID
	count int
}

// Create allocates an empty heap file.
func Create(pool *buffer.Pool) (*File, error) {
	f := new(File)
	if err := CreateInto(f, pool); err != nil {
		return nil, err
	}
	return f, nil
}

// CreateInto is Create into a File the caller owns, never created or
// already dropped, for a holder that forms one file after another in
// the same handle (a query temporary). On an error f is left as it was.
func CreateInto(f *File, pool *buffer.Pool) error {
	id, buf, err := pool.NewPage()
	if err != nil {
		return err
	}
	storage.Page{Buf: buf}.Init(storage.TypeHeap)
	pool.Unpin(id, true)
	*f = File{pool: pool, first: id, last: id, pages: append(f.pages[:0], id)}
	return nil
}

// Count returns the number of live records.
func (f *File) Count() int { return f.count }

// Append inserts rec at the tail, growing the chain as needed, and
// returns the record's RID.
func (f *File) Append(rec []byte) (storage.RID, error) {
	a := f.Appender()
	defer a.Close()
	return a.Append(rec)
}

// Appender appends a run of records holding the tail page pinned from
// its first Append to Close, instead of pinning and unpinning it once
// per record. The caller must not touch the pool between the run's
// appends (a tight loop over in-memory values is the intended use):
// then the tail ends the run exactly where a loop of File.Append calls
// would leave it in the replacement order. Close is required.
type Appender struct {
	f     *File
	pg    storage.Page // the pinned tail; Buf is nil before the first Append
	dirty bool
}

// Appender starts an append run. Nothing is pinned until the first
// Append.
func (f *File) Appender() Appender { return Appender{f: f} }

// Append inserts rec at the tail, growing the chain as needed.
func (a *Appender) Append(rec []byte) (storage.RID, error) {
	if len(rec) > disk.PageSize/2 {
		return storage.RID{}, errors.New("heap: record larger than half a page")
	}
	if err := a.pin(); err != nil {
		return storage.RID{}, err
	}
	slot, err := a.pg.Insert(rec)
	if errors.Is(err, storage.ErrPageFull) {
		if err = a.grow(); err == nil {
			slot, err = a.pg.Insert(rec)
		}
	}
	if err != nil {
		return storage.RID{}, err
	}
	a.dirty = true
	a.f.count++
	return storage.RID{Page: a.f.last, Slot: uint16(slot)}, nil
}

// AppendInt64s appends each value of vs as its own 8-byte little-endian
// record, a page at a time (storage.Page.InsertInt64s). The pins, the
// new pages and the bytes are those of a loop of Append calls, one per
// value.
func (a *Appender) AppendInt64s(vs []int64) error {
	for len(vs) > 0 {
		if err := a.pin(); err != nil {
			return err
		}
		if k := a.pg.InsertInt64s(vs); k > 0 {
			a.dirty = true
			a.f.count += k
			vs = vs[k:]
		} else if err := a.grow(); err != nil {
			return err
		}
	}
	return nil
}

// pin holds the tail page, if the run does not hold it yet.
func (a *Appender) pin() error {
	if a.pg.Buf == nil {
		buf, err := a.f.pool.Pin(a.f.last)
		if err != nil {
			return err
		}
		a.pg = storage.Page{Buf: buf}
	}
	return nil
}

// grow links a fresh page in after the full tail and makes it the held
// tail.
func (a *Appender) grow() error {
	f := a.f
	nid, nbuf, err := f.pool.NewPage()
	if err != nil {
		return err
	}
	npg := storage.Page{Buf: nbuf}
	npg.Init(storage.TypeHeap)
	npg.SetPrev(f.last)
	a.pg.SetNext(nid)
	f.pool.Unpin(f.last, true)
	a.pg, a.dirty = npg, true // a new page is born dirty
	f.last = nid
	f.pages = append(f.pages, nid)
	return nil
}

// Close releases the tail page. It is idempotent.
func (a *Appender) Close() {
	if a.pg.Buf != nil {
		a.f.pool.Unpin(a.f.last, a.dirty)
		a.pg.Buf = nil
	}
}

// Scan calls fn for every live record in chain order. fn's rec slice is
// only valid during the call; return false to stop early.
func (f *File) Scan(fn func(rid storage.RID, rec []byte) bool) error {
	id := f.first
	for id != disk.InvalidPageID {
		buf, err := f.pool.Pin(id)
		if err != nil {
			return err
		}
		pg := storage.Page{Buf: buf}
		stop := false
		pg.LiveRecords(func(slot int, rec []byte) bool {
			if !fn(storage.RID{Page: id, Slot: uint16(slot)}, rec) {
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
	return nil
}

// ReadInt64s appends the value of every record, each an 8-byte
// little-endian int64, to dst in chain order, a page at a time
// (storage.Page.AppendInt64s): it pins the pages Scan pins, in the same
// order. A record of another length is an error. A non-nil page is
// called with dst after each page's values, while that page is still
// pinned, and returns the dst to go on with: a reader that consumes the
// values as it goes makes its pool calls where a Scan callback would.
func (f *File) ReadInt64s(dst []int64, page func([]int64) ([]int64, error)) ([]int64, error) {
	for id := f.first; id != disk.InvalidPageID; {
		buf, err := f.pool.Pin(id)
		if err != nil {
			return dst, err
		}
		pg := storage.Page{Buf: buf}
		dst, err = pg.AppendInt64s(dst)
		if err == nil && page != nil {
			dst, err = page(dst)
		}
		next := pg.Next()
		f.pool.Unpin(id, false)
		if err != nil {
			return dst, err
		}
		id = next
	}
	return dst, nil
}

// Drop gives every page of the file back to the disk (disk.Manager.Free)
// from the page list the file keeps, so no page is read to find them.
// The pool is not told: a frame still holding one of the pages is
// evicted, and written back if dirty, exactly as if the file lived on,
// so dropping moves no I/O count. The file keeps its page list, emptied,
// for the next CreateInto into it, and must not be used otherwise; a
// second Drop does nothing.
func (f *File) Drop() error {
	if f.pool == nil {
		return nil
	}
	dm := f.pool.Disk()
	var err error
	for _, id := range f.pages {
		err = errors.Join(err, dm.Free(id))
	}
	*f = File{first: disk.InvalidPageID, last: disk.InvalidPageID, pages: f.pages[:0]}
	return err
}
