package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// Device is the flat byte store under a Log: an append-oriented file
// abstraction with an explicit durability barrier. FileDevice is the
// real implementation; MemDevice simulates a device whose unsynced
// writes may partially survive a crash (the OS page cache flushed some
// bytes on its own before the process died), which is what makes torn
// log tails reachable in the crash harness.
type Device interface {
	WriteAt(p []byte, off int64) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	// Size returns the current device length in bytes.
	Size() (int64, error)
	// Sync makes every completed WriteAt durable.
	Sync() error
	// Truncate discards everything at and after size.
	Truncate(size int64) error
	Close() error
}

// FileDevice is a Device over a real file.
type FileDevice struct {
	f *os.File
}

// OpenFileDevice opens (creating if absent) the log file at path.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileDevice{f: f}, nil
}

func (d *FileDevice) WriteAt(p []byte, off int64) (int, error) { return d.f.WriteAt(p, off) }
func (d *FileDevice) ReadAt(p []byte, off int64) (int, error)  { return d.f.ReadAt(p, off) }

func (d *FileDevice) Size() (int64, error) {
	fi, err := d.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (d *FileDevice) Sync() error { return d.f.Sync() }

func (d *FileDevice) Truncate(size int64) error {
	if err := d.f.Truncate(size); err != nil {
		return err
	}
	return d.f.Sync()
}

func (d *FileDevice) Close() error { return d.f.Close() }

// ErrSyncFailed is the injected fsync failure of MemDevice.FailNextSync.
var ErrSyncFailed = errors.New("wal: injected sync failure")

// MemDevice is an in-memory Device that models the synced/unsynced
// boundary: Sync advances a watermark, and Crash returns the bytes a
// reopened process would find — the synced prefix plus a caller-chosen
// amount of the unsynced tail, which may end mid-record. An optional
// per-Sync delay simulates fsync latency for the group-commit sweep.
type MemDevice struct {
	mu        sync.Mutex
	buf       []byte
	synced    int64
	syncDelay time.Duration
	failNext  bool
}

// NewMemDevice returns an empty in-memory device. syncDelay, when
// positive, is slept inside every Sync — the simulated cost the group
// committer amortizes.
func NewMemDevice(syncDelay time.Duration) *MemDevice {
	return &MemDevice{syncDelay: syncDelay}
}

// NewMemDeviceBytes returns a device holding (and fully synced to) the
// given bytes — the post-crash medium handed to recovery.
func NewMemDeviceBytes(b []byte) *MemDevice {
	cp := append([]byte(nil), b...)
	return &MemDevice{buf: cp, synced: int64(len(cp))}
}

func (m *MemDevice) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(m.buf)) {
		m.buf = append(m.buf, make([]byte, need-int64(len(m.buf)))...)
	}
	copy(m.buf[off:], p)
	return len(p), nil
}

func (m *MemDevice) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.buf)) {
		return 0, fmt.Errorf("wal: read past end (off %d, size %d)", off, len(m.buf))
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, fmt.Errorf("wal: short read at %d", off)
	}
	return n, nil
}

func (m *MemDevice) Size() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.buf)), nil
}

func (m *MemDevice) Sync() error {
	m.mu.Lock()
	fail := m.failNext
	m.failNext = false
	delay := m.syncDelay
	if !fail {
		m.synced = int64(len(m.buf))
	}
	m.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return ErrSyncFailed
	}
	return nil
}

func (m *MemDevice) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size < int64(len(m.buf)) {
		m.buf = m.buf[:size]
	}
	if m.synced > size {
		m.synced = size
	}
	return nil
}

func (m *MemDevice) Close() error { return nil }

// FailNextSync arms a one-shot fsync failure: the next Sync returns
// ErrSyncFailed without advancing the durable watermark — the crash
// harness's "process died inside the commit fsync".
func (m *MemDevice) FailNextSync() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failNext = true
}

// Unsynced returns how many written bytes are not yet durable.
func (m *MemDevice) Unsynced() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.buf)) - m.synced
}

// Crash returns the surviving log image: the synced prefix plus up to
// keepUnsynced bytes of the unsynced tail (clamped to what was
// written). keepUnsynced models the OS having flushed part of the page
// cache on its own; a value inside a record yields a torn tail.
func (m *MemDevice) Crash(keepUnsynced int64) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.synced + keepUnsynced
	if end > int64(len(m.buf)) {
		end = int64(len(m.buf))
	}
	if end < m.synced {
		end = m.synced
	}
	return append([]byte(nil), m.buf[:end]...)
}
