package isam

import (
	"errors"
	"math/rand"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/storage"
)

func build(t *testing.T, entries []Entry) (*Index, *buffer.Pool, *disk.Sim) {
	t.Helper()
	d := disk.NewSim()
	pool := buffer.New(d, 32)
	idx, err := Build(pool, entries)
	if err != nil {
		t.Fatal(err)
	}
	return idx, pool, d
}

func mkEntries(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: int64(i * 3), RID: storage.RID{Page: disk.PageID(i + 1), Slot: uint16(i % 7)}}
	}
	return es
}

func TestEmptyIndex(t *testing.T) {
	idx, _, _ := build(t, nil)
	if _, err := idx.Probe(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("probe empty: %v", err)
	}
	if idx.levels != 1 {
		t.Fatalf("levels = %d", idx.levels)
	}
}

func TestSingleEntry(t *testing.T) {
	idx, _, _ := build(t, []Entry{{Key: 5, RID: storage.RID{Page: 9, Slot: 2}}})
	rid, err := idx.Probe(5)
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != 9 || rid.Slot != 2 {
		t.Fatalf("rid = %v", rid)
	}
	if _, err := idx.Probe(4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("probe below: %v", err)
	}
	if _, err := idx.Probe(6); !errors.Is(err, ErrNotFound) {
		t.Fatalf("probe above: %v", err)
	}
}

func TestProbeAll(t *testing.T) {
	es := mkEntries(10000) // multi-level: 126 entries/page → 80 leaves → 1 root
	idx, pool, _ := build(t, es)
	if idx.levels < 2 {
		t.Fatalf("levels = %d, want multi-level", idx.levels)
	}
	for _, e := range es {
		rid, err := idx.Probe(e.Key)
		if err != nil {
			t.Fatalf("probe %d: %v", e.Key, err)
		}
		if rid != e.RID {
			t.Fatalf("probe %d = %v, want %v", e.Key, rid, e.RID)
		}
	}
	if pool.PinnedCount() != 0 {
		t.Fatalf("leaked pins: %d", pool.PinnedCount())
	}
}

func TestProbeMissing(t *testing.T) {
	es := mkEntries(1000) // keys 0,3,6,...
	idx, _, _ := build(t, es)
	for _, k := range []int64{-5, 1, 2, 4, 1501, 2998, 3000} {
		if _, err := idx.Probe(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("probe %d: err = %v, want ErrNotFound", k, err)
		}
	}
}

func TestBuildSortsInput(t *testing.T) {
	es := mkEntries(500)
	rand.New(rand.NewSource(3)).Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	idx, _, _ := build(t, es)
	for i := 0; i < 500; i++ {
		rid, err := idx.Probe(int64(i * 3))
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page != disk.PageID(i+1) {
			t.Fatalf("key %d → page %d, want %d", i*3, rid.Page, i+1)
		}
	}
}

func TestDuplicateKeysReturnFirst(t *testing.T) {
	es := []Entry{
		{Key: 1, RID: storage.RID{Page: 1}},
		{Key: 2, RID: storage.RID{Page: 2}},
		{Key: 2, RID: storage.RID{Page: 3}},
		{Key: 3, RID: storage.RID{Page: 4}},
	}
	idx, _, _ := build(t, es)
	rid, err := idx.Probe(2)
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != 2 {
		t.Fatalf("probe 2 → page %d, want first (2)", rid.Page)
	}
}

func TestProbeCostConstant(t *testing.T) {
	// A probe reads one page per level — the paper's reason for using a
	// static ISAM index for random access to ClusterRel.
	d := disk.NewSim()
	pool := buffer.New(d, 200)
	idx, err := Build(pool, mkEntries(20000))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if _, err := idx.Probe(2997); err != nil {
		t.Fatal(err)
	}
	reads := d.Stats().Sub(before).Reads
	if reads != int64(idx.levels) {
		t.Fatalf("cold probe cost %d reads, want %d (one per level)", reads, idx.levels)
	}
}

func TestNegativeAndExtremeKeys(t *testing.T) {
	es := []Entry{
		{Key: -1 << 40, RID: storage.RID{Page: 1}},
		{Key: -7, RID: storage.RID{Page: 2}},
		{Key: 0, RID: storage.RID{Page: 3}},
		{Key: 1 << 50, RID: storage.RID{Page: 4}},
	}
	idx, _, _ := build(t, es)
	for i, e := range es {
		rid, err := idx.Probe(e.Key)
		if err != nil {
			t.Fatalf("probe %d: %v", e.Key, err)
		}
		if rid.Page != disk.PageID(i+1) {
			t.Fatalf("key %d → %v", e.Key, rid)
		}
	}
}
