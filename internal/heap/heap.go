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
// chain order is mirrored in pages so a full scan knows its page plan up
// front (sequential readahead).
type File struct {
	pool  *buffer.Pool
	first disk.PageID
	last  disk.PageID
	pages []disk.PageID
	count int
}

// Create allocates an empty heap file.
func Create(pool *buffer.Pool) (*File, error) {
	id, buf, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	storage.Page{Buf: buf}.Init(storage.TypeHeap)
	pool.Unpin(id, true)
	return &File{pool: pool, first: id, last: id, pages: []disk.PageID{id}}, nil
}

// Open re-attaches to an existing heap file rooted at first. The caller
// must know the chain head (the catalog stores it).
func Open(pool *buffer.Pool, first disk.PageID) (*File, error) {
	f := &File{pool: pool, first: first, last: first}
	// Walk to the tail so appends keep working; also recount records.
	id := first
	for id != disk.InvalidPageID {
		buf, err := pool.Pin(id)
		if err != nil {
			return nil, err
		}
		pg := storage.Page{Buf: buf}
		pg.LiveRecords(func(int, []byte) bool { f.count++; return true })
		next := pg.Next()
		pool.Unpin(id, false)
		f.pages = append(f.pages, id)
		f.last = id
		id = next
	}
	return f, nil
}

// First returns the chain head (persisted in the catalog).
func (f *File) First() disk.PageID { return f.first }

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
	f := a.f
	if len(rec) > disk.PageSize/2 {
		return storage.RID{}, errors.New("heap: record larger than half a page")
	}
	if a.pg.Buf == nil {
		buf, err := f.pool.Pin(f.last)
		if err != nil {
			return storage.RID{}, err
		}
		a.pg = storage.Page{Buf: buf}
	}
	slot, err := a.pg.Insert(rec)
	if errors.Is(err, storage.ErrPageFull) {
		// Grow the chain: link a fresh page in and make it the held tail.
		nid, nbuf, nerr := f.pool.NewPage()
		if nerr != nil {
			return storage.RID{}, nerr
		}
		npg := storage.Page{Buf: nbuf}
		npg.Init(storage.TypeHeap)
		npg.SetPrev(f.last)
		a.pg.SetNext(nid)
		f.pool.Unpin(f.last, true)
		a.pg, a.dirty = npg, true // a new page is born dirty
		f.last = nid
		f.pages = append(f.pages, nid)
		slot, err = a.pg.Insert(rec)
	}
	if err != nil {
		return storage.RID{}, err
	}
	a.dirty = true
	f.count++
	return storage.RID{Page: f.last, Slot: uint16(slot)}, nil
}

// Close releases the tail page. It is idempotent.
func (a *Appender) Close() {
	if a.pg.Buf != nil {
		a.f.pool.Unpin(a.f.last, a.dirty)
		a.pg.Buf = nil
	}
}

// Update overwrites the record at rid in place. The record stays on its
// page (RIDs handed out never go stale); growth beyond the page's free
// space fails with storage.ErrPageFull.
func (f *File) Update(rid storage.RID, rec []byte) error {
	buf, err := f.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	pg := storage.Page{Buf: buf}
	err = pg.Update(int(rid.Slot), rec)
	f.pool.Unpin(rid.Page, err == nil)
	return err
}

// Get fetches the record at rid. The returned slice is a copy.
func (f *File) Get(rid storage.RID) ([]byte, error) {
	buf, err := f.pool.Pin(rid.Page)
	if err != nil {
		return nil, err
	}
	pg := storage.Page{Buf: buf}
	rec, err := pg.Record(int(rid.Slot))
	if err != nil {
		f.pool.Unpin(rid.Page, false)
		return nil, err
	}
	out := append([]byte(nil), rec...)
	f.pool.Unpin(rid.Page, false)
	return out, nil
}

// Scan calls fn for every live record in chain order. fn's rec slice is
// only valid during the call; return false to stop early.
func (f *File) Scan(fn func(rid storage.RID, rec []byte) bool) error {
	// The chain order is known up front: hand it to the prefetcher (when
	// attached) so the next pages stage while this one is consumed.
	var ch *buffer.Chain
	if pf := f.pool.Prefetcher(); pf != nil && len(f.pages) > 1 {
		ch = pf.Start(f.pages)
		defer ch.Finish()
	}
	id := f.first
	for id != disk.InvalidPageID {
		buf, err := f.pool.Pin(id)
		if err != nil {
			return err
		}
		ch.Consumed(id)
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

// NumPages returns the length of the page chain (an I/O cost bound for a
// full scan).
func (f *File) NumPages() (int, error) {
	n := 0
	id := f.first
	for id != disk.InvalidPageID {
		buf, err := f.pool.Pin(id)
		if err != nil {
			return 0, err
		}
		next := storage.Page{Buf: buf}.Next()
		f.pool.Unpin(id, false)
		n++
		id = next
	}
	return n, nil
}
