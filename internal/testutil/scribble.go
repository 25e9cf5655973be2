package testutil

import (
	"errors"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
)

// ScribbleFrames overwrites the in-memory image of every page on the
// pool's disk with junk and then drops the frames. The junk goes in
// through the pool and is never marked dirty, so the disk keeps the
// truth and later reads are unaffected — but any bytes a test obtained
// earlier that still alias a pool frame read 0xA5 afterwards. Results
// that own their bytes do not change: that is what no-aliasing tests
// assert. The pool must be quiescent (no pins).
func ScribbleFrames(t testing.TB, pool *buffer.Pool) {
	t.Helper()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Page ids are allocated densely from 1 (0 is InvalidPageID); a
	// dropped temporary's ids stay issued but read as not found.
	for id := 1; id <= pool.Disk().NumPages(); id++ {
		buf, err := pool.Pin(disk.PageID(id))
		if errors.Is(err, disk.ErrPageNotFound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xA5
		}
		pool.Unpin(disk.PageID(id), false)
	}
	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
}
