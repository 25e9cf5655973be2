// Package disk provides the simulated disk underlying the storage engine.
//
// The reproduction's performance yardstick is counted page I/O (the paper
// measured "average I/O traffic" through INGRES system counters), so the
// disk is an in-memory page store that charges one unit of I/O per page
// read and per page write. Wall-clock time is irrelevant; the counters
// are the experiment.
package disk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the size of every disk page in bytes. INGRES 5.0, the
// testbed of the paper, used 2 KB data pages; we match it so that tuple
// densities (≈10 ParentRel tuples or ≈20 ChildRel tuples per page) match
// the paper's environment.
const PageSize = 2048

// TornPrefix is how many bytes of a page survive a torn write: the
// device wrote the first sector run and died before the rest.
const TornPrefix = PageSize / 2

// PageID names a page on the simulated disk. Page ids are dense and
// allocated in increasing order; InvalidPageID is never allocated, and
// a freed id is never issued again.
type PageID uint32

// InvalidPageID is the zero PageID; it marks "no page" in page chains.
const InvalidPageID PageID = 0

// Stats is a snapshot of the disk's I/O counters.
type Stats struct {
	Reads  int64 // pages read from the disk
	Writes int64 // pages written to the disk
	Allocs int64 // pages allocated
	Frees  int64 // pages freed (Allocs - Frees pages are live)
}

// Total returns reads plus writes: the paper's single I/O cost figure.
func (s Stats) Total() int64 { return s.Reads + s.Writes }

// Sub returns the counter deltas s - o. The harness snapshots counters
// around each query and reports deltas.
func (s Stats) Sub(o Stats) Stats {
	return Stats{Reads: s.Reads - o.Reads, Writes: s.Writes - o.Writes,
		Allocs: s.Allocs - o.Allocs, Frees: s.Frees - o.Frees}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d io=%d", s.Reads, s.Writes, s.Allocs, s.Total())
}

// Common errors returned by Manager implementations.
var (
	ErrPageNotFound = errors.New("disk: page not allocated")
	ErrBadPageSize  = errors.New("disk: buffer is not PageSize bytes")
	ErrFaulted      = errors.New("disk: injected fault")
)

// Fault taxonomy. Every injected error wraps ErrFaulted, so
// errors.Is(err, ErrFaulted) attributes any failure — however deep it
// surfaced — back to the injector. The sub-kinds drive policy:
//
//   - ErrTransient: retry-safe; the same operation may succeed if
//     reissued (a recoverable device hiccup). The buffer pool retries
//     these a bounded number of times.
//   - ErrPermanent: the page is gone; retrying is futile and callers
//     must degrade or surface the error.
//   - ErrTornWrite: the write was interrupted mid-page. The disk keeps
//     the first half of the new contents (a torn page); the caller's
//     in-memory copy remains the only full copy.
var (
	ErrTransient = fmt.Errorf("%w: transient", ErrFaulted)
	ErrPermanent = fmt.Errorf("%w: permanent", ErrFaulted)
	ErrTornWrite = fmt.Errorf("%w: torn write", ErrFaulted)
)

// IsFault reports whether err originated from an injected fault.
func IsFault(err error) bool { return errors.Is(err, ErrFaulted) }

// IsTransient reports whether err is a retry-safe injected fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Manager is the disk interface used by the buffer pool. Implementations
// must be safe for concurrent use.
type Manager interface {
	// Alloc reserves a fresh zeroed page and returns its id.
	Alloc() (PageID, error)
	// Read copies the page's contents into buf (len(buf) == PageSize).
	Read(id PageID, buf []byte) error
	// Write stores buf (len(buf) == PageSize) as the page's contents.
	Write(id PageID, buf []byte) error
	// Free gives page id's storage back. The id is retired, never issued
	// again: a later Read of it fails with ErrPageNotFound, and a Write —
	// a buffer-pool frame still holding the page, written back — is
	// charged like any other and its bytes discarded, so freeing moves no
	// I/O count. The pool is not told; the caller must not use the id
	// again.
	Free(id PageID) error
	// Stats returns a snapshot of the I/O counters.
	Stats() Stats
	// NumPages returns the number of page ids issued, freed ones included.
	NumPages() int
}

// page is one page's bytes on the simulated disk.
type page = [PageSize]byte

// chunkBits sizes the page directory's chunks: 1<<chunkBits slots each.
const (
	chunkBits = 10
	chunkMask = 1<<chunkBits - 1
)

// chunk is a fixed run of the page directory. A slot below the issued
// count holds its page's bytes, or nil once the page is freed.
type chunk [1 << chunkBits]atomic.Pointer[page]

// Sim is the in-memory simulated disk. Its only job is to hold pages and
// count the traffic. A FaultFunc may be installed to inject errors for
// failure testing.
//
// Read and Write take no lock: the page directory is append-only chunks
// published through an atomic pointer, each slot an atomic pointer to
// its page, so concurrent readers through a sharded buffer pool never
// serialize here. mu serializes only what changes the directory —
// Alloc, Free and Restore. Two overlapping transfers of the *same* page
// would race on its contents; the buffer pool rules that out (a page
// belongs to exactly one shard, and transfers happen under that shard's
// mutex).
type Sim struct {
	mu  sync.Mutex
	dir atomic.Pointer[[]*chunk] // grows by publishing a longer slice
	n   atomic.Uint32            // page ids issued: 1..n have slots

	// Freed pages' bytes, recycled (zeroed) by Alloc; guarded by mu. A
	// Write that found a page before Free retired it may still be copying
	// into its bytes, so Alloc takes one only at a moment with no Write
	// in flight (writing == 0), which proves no such copy remains.
	spare   []*page
	writing atomic.Int64

	reads, writes, allocs, frees atomic.Int64

	// latency, when non-zero, is slept per page transfer (ns). The
	// counters stay the yardstick for the paper's experiments (latency
	// defaults to 0 and never changes a count); the concurrent serving
	// benchmark sets it so that throughput reflects how much device wait
	// the buffer-pool stripes can overlap. The sleep happens while the
	// calling pool shard holds its lock — exactly the serialization a
	// single-mutex pool imposes on every client.
	latency atomic.Int64

	// fault, when set, is consulted before every operation; a non-nil
	// return aborts the operation with that error.
	fault atomic.Pointer[FaultFunc]
}

// FaultFunc decides whether an operation on a page should fail. Op is
// one of "alloc", "read", "write".
type FaultFunc func(op string, id PageID) error

// NewSim returns an empty simulated disk.
func NewSim() *Sim { return &Sim{} }

// SetFault installs (or clears, with nil) a fault injector.
func (d *Sim) SetFault(f FaultFunc) {
	if f == nil {
		d.fault.Store(nil)
		return
	}
	d.fault.Store(&f)
}

// faulted consults the installed fault injector, if any.
func (d *Sim) faulted(op string, id PageID) error {
	if f := d.fault.Load(); f != nil {
		return (*f)(op, id)
	}
	return nil
}

// SetLatency installs a simulated per-page-transfer device latency
// (0 disables, the default). Safe to call concurrently.
func (d *Sim) SetLatency(l time.Duration) { d.latency.Store(int64(l)) }

// simulateLatency sleeps the configured device latency, if any. Called
// after the page transfer, so metadata operations (Alloc, Free) are not
// blocked by sleeping transfers.
func (d *Sim) simulateLatency() {
	if l := d.latency.Load(); l > 0 {
		time.Sleep(time.Duration(l))
	}
}

// Alloc reserves a fresh zeroed page. The first allocated id is 1 so that
// InvalidPageID (0) never refers to a real page.
func (d *Sim) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(d.n.Load() + 1)
	if err := d.faulted("alloc", id); err != nil {
		return InvalidPageID, err
	}
	d.issue(d.fresh())
	return id, nil
}

// Read copies page id into buf and charges one read.
func (d *Sim) Read(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadPageSize
	}
	if err := d.faulted("read", id); err != nil {
		return err
	}
	s := d.slot(id)
	if s == nil {
		return notFound(id)
	}
	p := s.Load()
	if p == nil {
		return notFound(id)
	}
	copy(buf, p[:])
	d.reads.Add(1)
	d.simulateLatency()
	return nil
}

// Write stores buf as page id's contents and charges one write. A freed
// page's write is charged too, and its bytes dropped.
func (d *Sim) Write(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadPageSize
	}
	s := d.slot(id)
	if err := d.faulted("write", id); err != nil {
		// A torn write leaves the first half of the new contents on
		// the page before failing; the caller must keep its full
		// in-memory copy (the buffer pool leaves the frame dirty and
		// resident, so the torn page is rewritten before any reread).
		if s != nil && errors.Is(err, ErrTornWrite) {
			d.store(s, buf[:TornPrefix])
		}
		return err
	}
	if s == nil {
		return notFound(id)
	}
	d.store(s, buf)
	d.writes.Add(1)
	d.simulateLatency()
	return nil
}

// store copies b over the start of slot s's page, if it still has one,
// inside the writing window Alloc's recycling waits out.
func (d *Sim) store(s *atomic.Pointer[page], b []byte) {
	d.writing.Add(1)
	if p := s.Load(); p != nil {
		copy(p[:], b)
	}
	d.writing.Add(-1)
}

// Free retires page id (Manager.Free). It bypasses fault injection and
// the I/O counters: giving a page back is bookkeeping, not traffic.
func (d *Sim) Free(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.slot(id)
	if s == nil {
		return notFound(id)
	}
	p := s.Swap(nil)
	if p == nil {
		return notFound(id)
	}
	d.spare = append(d.spare, p)
	d.frees.Add(1)
	return nil
}

// Stats returns a snapshot of the I/O counters.
func (d *Sim) Stats() Stats {
	return Stats{Reads: d.reads.Load(), Writes: d.writes.Load(),
		Allocs: d.allocs.Load(), Frees: d.frees.Load()}
}

// ResetStats zeroes the I/O counters (allocation and free counts are
// preserved so page ids stay consistent).
func (d *Sim) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
}

// NumPages returns the number of page ids issued, freed ones included.
func (d *Sim) NumPages() int { return int(d.n.Load()) }

// Restore installs a full page image during WAL recovery, extending
// the page space if id was allocated after the last checkpoint. A freed
// id comes back to life: the log may hold the image of a temporary's
// page that was dropped later. It bypasses fault injection and the I/O
// counters: recovery writes are bookkeeping, not workload traffic.
func (d *Sim) Restore(id PageID, img []byte) error {
	if len(img) != PageSize {
		return ErrBadPageSize
	}
	if id == InvalidPageID {
		return notFound(id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for PageID(d.n.Load()) < id {
		d.issue(d.fresh())
	}
	s := d.slot(id)
	p := s.Load()
	if p == nil {
		p = d.fresh()
		s.Store(p)
		d.allocs.Add(1)
	}
	copy(p[:], img)
	return nil
}

// slot returns page id's directory slot, nil when id was never issued.
func (d *Sim) slot(id PageID) *atomic.Pointer[page] {
	if id == InvalidPageID || uint32(id) > d.n.Load() {
		return nil
	}
	i := uint32(id) - 1
	return &(*d.dir.Load())[i>>chunkBits][i&chunkMask]
}

// issue gives p the next page id, growing the directory by a chunk when
// the id starts one. The slot is filled before the id is published, so a
// reader that sees the id sees its page. mu held.
func (d *Sim) issue(p *page) {
	i := d.n.Load()
	dir := d.dir.Load()
	if dir == nil || int(i>>chunkBits) == len(*dir) {
		var grown []*chunk
		if dir != nil {
			grown = *dir
		}
		// Readers of the old slice never look past its length, so the
		// append may reuse its array.
		grown = append(grown, new(chunk))
		dir = &grown
		d.dir.Store(dir)
	}
	(*dir)[i>>chunkBits][i&chunkMask].Store(p)
	d.n.Store(i + 1)
	d.allocs.Add(1)
}

// fresh returns a zeroed page, recycling a freed one's bytes when that
// is safe. mu held.
func (d *Sim) fresh() *page {
	// Every spare page was retired before this load, and a Write that
	// found one counted itself in writing before it looked: at zero, none
	// is still copying.
	n := len(d.spare)
	if n == 0 || d.writing.Load() != 0 {
		return new(page)
	}
	p := d.spare[n-1]
	d.spare = d.spare[:n-1]
	*p = page{}
	return p
}

func notFound(id PageID) error { return fmt.Errorf("%w: %d", ErrPageNotFound, id) }
