package hashfile

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
)

func newFile(t *testing.T, buckets int) (*File, *buffer.Pool, *disk.Sim) {
	t.Helper()
	d := disk.NewSim()
	pool := buffer.New(d, 64)
	f, err := Create(pool, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return f, pool, d
}

func TestPutGet(t *testing.T) {
	f, _, _ := newFile(t, 8)
	if err := f.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "one" {
		t.Fatalf("got %q", got)
	}
}

func TestGetMissing(t *testing.T) {
	f, _, _ := newFile(t, 8)
	if _, err := f.Get(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	ok, err := f.Contains(99)
	if err != nil || ok {
		t.Fatalf("contains = %v, %v", ok, err)
	}
}

func TestPutReplaces(t *testing.T) {
	f, _, _ := newFile(t, 4)
	if err := f.Put(7, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := f.Put(7, []byte("new-value")); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new-value" {
		t.Fatalf("got %q", got)
	}
	if f.Count() != 1 {
		t.Fatalf("count = %d", f.Count())
	}
}

func TestDelete(t *testing.T) {
	f, _, _ := newFile(t, 4)
	_ = f.Put(1, []byte("a"))
	_ = f.Put(2, []byte("b"))
	if err := f.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key still present: %v", err)
	}
	if got, err := f.Get(2); err != nil || string(got) != "b" {
		t.Fatalf("unrelated key lost: %q, %v", got, err)
	}
	if err := f.Delete(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if f.Count() != 1 {
		t.Fatalf("count = %d", f.Count())
	}
}

func TestOverflowChains(t *testing.T) {
	// One bucket forces everything into a single chain.
	f, pool, _ := newFile(t, 1)
	val := bytes.Repeat([]byte("v"), 200)
	const n = 100 // 100 × 208B ≫ one page
	for i := int64(0); i < n; i++ {
		if err := f.Put(i, append(val, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n; i++ {
		got, err := f.Get(i)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if got[len(got)-1] != byte(i) {
			t.Fatalf("value %d corrupted", i)
		}
	}
	if pool.PinnedCount() != 0 {
		t.Fatalf("leaked pins: %d", pool.PinnedCount())
	}
}

func TestDeleteReclaimedByCompaction(t *testing.T) {
	// Fill one bucket, delete everything, refill: the chain must not grow
	// unboundedly because Put compacts dead slots.
	f, _, d := newFile(t, 1)
	val := bytes.Repeat([]byte("x"), 300)
	for round := 0; round < 10; round++ {
		for i := int64(0); i < 30; i++ {
			if err := f.Put(i, val); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 30; i++ {
			if err := f.Delete(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if f.Count() != 0 {
		t.Fatalf("count = %d", f.Count())
	}
	if pages := d.NumPages(); pages > 30 {
		t.Fatalf("chain grew to %d pages despite compaction", pages)
	}
}

func TestOversizeValueRejected(t *testing.T) {
	f, _, _ := newFile(t, 4)
	if err := f.Put(1, make([]byte, disk.PageSize)); err == nil {
		t.Fatal("oversize value accepted")
	}
}

func TestNegativeKeys(t *testing.T) {
	f, _, _ := newFile(t, 8)
	keys := []int64{-1, -1 << 60, 0, 1 << 60}
	for i, k := range keys {
		if err := f.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		got, err := f.Get(k)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("key %d = %d", k, got[0])
		}
	}
}

func TestProbeCostIsOnePageTypical(t *testing.T) {
	// "Cache is maintained as a hash relation" so a cold probe of a
	// lightly-loaded file costs ~1 page read.
	d := disk.NewSim()
	pool := buffer.New(d, 300)
	f, err := Create(pool, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if err := f.Put(i, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if _, err := f.Get(11); err != nil {
		t.Fatal(err)
	}
	if reads := d.Stats().Sub(before).Reads; reads != 1 {
		t.Fatalf("cold probe cost %d reads, want 1", reads)
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	f, _, _ := newFile(t, 8)
	rng := rand.New(rand.NewSource(11))
	model := map[int64][]byte{}
	for op := 0; op < 3000; op++ {
		k := int64(rng.Intn(200))
		switch rng.Intn(3) {
		case 0, 1:
			v := make([]byte, 1+rng.Intn(100))
			rng.Read(v)
			if err := f.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 2:
			err := f.Delete(k)
			if _, ok := model[k]; ok {
				if err != nil {
					t.Fatalf("delete present %d: %v", k, err)
				}
				delete(model, k)
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("delete absent %d: %v", k, err)
			}
		}
	}
	if f.Count() != len(model) {
		t.Fatalf("count = %d, model = %d", f.Count(), len(model))
	}
	for k, v := range model {
		got, err := f.Get(k)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("key %d mismatch", k)
		}
	}
}

// TestInPlaceAllocationCeiling: a replacing Put into a full bucket (the
// walk for the old entry, a page compaction, the two-part insert), a
// Delete, and an AppendValue into a buffer that already fits the value
// allocate nothing — and neither does the probe for a key that is not
// there, which every Put of a new key makes once.
func TestInPlaceAllocationCeiling(t *testing.T) {
	f, _, _ := newFile(t, 1)
	val := bytes.Repeat([]byte("v"), 300)
	for i := int64(0); i < 12; i++ { // the one bucket and an overflow page
		if err := f.Put(i, val); err != nil {
			t.Fatal(err)
		}
	}
	buf := append(make([]byte, 0, 512), "prefix"...)
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		if err = f.Put(3, val); err != nil {
			return
		}
		if err = f.Delete(7); err != nil {
			return
		}
		if err = f.Put(7, val); err != nil {
			return
		}
		if _, err = f.AppendValue(buf, 7); err != nil {
			return
		}
		if _, err = f.AppendValue(buf, 99); err == ErrNotFound { // the bare sentinel, by contract
			err = f.Delete(99)
		}
		if err == ErrNotFound {
			err = nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Put, Delete, AppendValue and two misses allocate %.0f objects, want 0", allocs)
	}
	got, err := f.AppendValue(buf, 7)
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), val...)) {
		t.Fatalf("AppendValue = %d bytes, %v: want prefix+value", len(got), err)
	}
	if got, err := f.AppendValue(buf, 99); err != ErrNotFound || !bytes.Equal(got, []byte("prefix")) {
		t.Fatalf("AppendValue of a missing key = %q, %v: want dst as it came and the bare ErrNotFound", got, err)
	}
}
