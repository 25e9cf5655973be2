package buffer

import (
	"testing"

	"corep/internal/disk"
)

func poolWith(t *testing.T, capacity, pages int) (*Pool, *disk.Sim, []disk.PageID) {
	t.Helper()
	p, d := newPool(capacity)
	return p, d, mkPages(t, d, pages)
}

func touch(t *testing.T, p *Pool, id disk.PageID) {
	t.Helper()
	if _, err := p.Pin(id); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, false)
}

func TestAllPoliciesRespectPins(t *testing.T) {
	p, _, ids := poolWith(t, 2, 3)
	if _, err := p.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin(ids[2]); err == nil {
		t.Fatal("evicted a pinned frame")
	}
	p.Unpin(ids[0], false)
	p.Unpin(ids[1], false)
	if _, err := p.Pin(ids[2]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[2], false)
}

func TestSequentialScanDefeatsAllPoliciesEqually(t *testing.T) {
	// A cyclic scan of N pages through a pool of M < N misses every time
	// under LRU: the classic sequential-flooding case.
	p, d, ids := poolWith(t, 8, 32)
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			touch(t, p, id)
		}
	}
	if reads := d.Stats().Reads; reads != int64(3*len(ids)) {
		t.Fatalf("cyclic scan reads = %d, want all misses %d", reads, 3*len(ids))
	}
}
