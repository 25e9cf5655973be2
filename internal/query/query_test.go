package query

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"corep/internal/btree"
	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/obs"
)

// SliceIter adapts an in-memory slice to Int64Iter.
type SliceIter struct {
	vals []int64
	pos  int
}

// NewSliceIter wraps vals.
func NewSliceIter(vals []int64) *SliceIter { return &SliceIter{vals: vals} }

// Next implements Int64Iter.
func (s *SliceIter) Next() (int64, bool, error) {
	if s.pos >= len(s.vals) {
		return 0, false, nil
	}
	v := s.vals[s.pos]
	s.pos++
	return v, true, nil
}

func newPool() *buffer.Pool { return buffer.New(disk.NewSim(), 32) }

func TestTempAppendScan(t *testing.T) {
	tmp, err := NewInt64Temp(newPool())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		if err := tmp.Append(i * 7); err != nil {
			t.Fatal(err)
		}
	}
	if tmp.Count() != 500 {
		t.Fatalf("count = %d", tmp.Count())
	}
	var got []int64
	err = tmp.Scan(func(v int64) (bool, error) { got = append(got, v); return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(i*7) {
			t.Fatalf("value %d = %d", i, v)
		}
	}
}

func TestTempIter(t *testing.T) {
	tmp, _ := NewInt64Temp(newPool())
	for _, v := range []int64{3, 1, 2} {
		_ = tmp.Append(v)
	}
	it := tmp.Iter()
	var got []int64
	for {
		v, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, v)
	}
	if fmt.Sprint(got) != "[3 1 2]" {
		t.Fatalf("got %v", got)
	}
}

func TestSortTempSmall(t *testing.T) {
	pool := newPool()
	tmp, _ := NewInt64Temp(pool)
	in := []int64{5, -1, 3, 3, 0, 100, 2}
	for _, v := range in {
		_ = tmp.Append(v)
	}
	sorted, err := SortTemp(pool, tmp, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	_ = sorted.Scan(func(v int64) (bool, error) { got = append(got, v); return true, nil })
	want := append([]int64(nil), in...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestSortTempExternalRuns(t *testing.T) {
	// workMem of 50 values forces many runs and a real merge.
	pool := newPool()
	tmp, _ := NewInt64Temp(pool)
	rng := rand.New(rand.NewSource(4))
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tmp.Append(int64(rng.Intn(1000))); err != nil {
			t.Fatal(err)
		}
	}
	sorted, err := SortTemp(pool, tmp, 50)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	_ = sorted.Scan(func(v int64) (bool, error) { got = append(got, v); return true, nil })
	if len(got) != n {
		t.Fatalf("sorted %d values, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestSortTempEmpty(t *testing.T) {
	pool := newPool()
	tmp, _ := NewInt64Temp(pool)
	sorted, err := SortTemp(pool, tmp, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Count() != 0 {
		t.Fatalf("count = %d", sorted.Count())
	}
}

func TestSortChargesIO(t *testing.T) {
	d := disk.NewSim()
	pool := buffer.New(d, 4)
	tmp, _ := NewInt64Temp(pool)
	for i := 0; i < 3000; i++ {
		_ = tmp.Append(int64(3000 - i))
	}
	before := d.Stats()
	if _, err := SortTemp(pool, tmp, 100); err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Sub(before)
	if delta.Total() == 0 {
		t.Fatal("external sort charged no I/O")
	}
}

func TestDistinct(t *testing.T) {
	d := NewDistinct(NewSliceIter([]int64{1, 1, 2, 3, 3, 3, 7}))
	var got []int64
	for {
		v, ok, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, v)
	}
	if fmt.Sprint(got) != "[1 2 3 7]" {
		t.Fatalf("got %v", got)
	}
}

func TestDistinctEmpty(t *testing.T) {
	d := NewDistinct(NewSliceIter(nil))
	if _, ok, _ := d.Next(); ok {
		t.Fatal("empty distinct yielded")
	}
}

// btreeIter adapts a btree iterator to KeyedIter.
type btreeIter struct{ it *btree.Iterator }

func (b btreeIter) Next() (int64, []byte, bool, error) { return b.it.Next() }

func TestMergeJoinAgainstBTree(t *testing.T) {
	pool := newPool()
	tr, err := btree.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := tr.Insert(i*2, []byte(fmt.Sprintf("v%d", i*2))); err != nil {
			t.Fatal(err)
		}
	}
	outer := NewSliceIter([]int64{0, 2, 2, 3, 4, 198, 200}) // 3 unmatched, 2 duplicated, 200 past end
	it, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = MergeJoin(obs.Ctx{}, outer, btreeIter{it}, func(k int64, p []byte) (bool, error) {
		got = append(got, string(p))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"v0", "v2", "v2", "v4", "v198"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMergeJoinEarlyStop(t *testing.T) {
	pool := newPool()
	tr, _ := btree.Create(pool)
	for i := int64(0); i < 10; i++ {
		_ = tr.Insert(i, []byte("x"))
	}
	it, _ := tr.SeekFirst()
	n := 0
	err := MergeJoin(obs.Ctx{}, NewSliceIter([]int64{0, 1, 2, 3}), btreeIter{it}, func(int64, []byte) (bool, error) {
		n++
		return n < 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("emitted %d", n)
	}
}

func TestMergeJoinEmptySides(t *testing.T) {
	pool := newPool()
	tr, _ := btree.Create(pool)
	it, _ := tr.SeekFirst()
	err := MergeJoin(obs.Ctx{}, NewSliceIter([]int64{1, 2}), btreeIter{it}, func(int64, []byte) (bool, error) {
		t.Fatal("emitted from empty inner")
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.Insert(1, []byte("x"))
	it, _ = tr.SeekFirst()
	err = MergeJoin(obs.Ctx{}, NewSliceIter(nil), btreeIter{it}, func(int64, []byte) (bool, error) {
		t.Fatal("emitted from empty outer")
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMergeJoinMatchesNestedLoopProperty(t *testing.T) {
	// Property: merge join (sorted outer) emits exactly what a nested
	// loop with probes would, in inner-key order.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := newPool()
		tr, _ := btree.Create(pool)
		inner := map[int64]bool{}
		for i := 0; i < 200; i++ {
			k := int64(rng.Intn(500))
			if !inner[k] {
				inner[k] = true
				_ = tr.Insert(k, []byte{1})
			}
		}
		var outer []int64
		for i := 0; i < 100; i++ {
			outer = append(outer, int64(rng.Intn(600)))
		}
		sort.Slice(outer, func(i, j int) bool { return outer[i] < outer[j] })
		wantCount := 0
		for _, v := range outer {
			if inner[v] {
				wantCount++
			}
		}
		it, _ := tr.SeekFirst()
		got := 0
		err := MergeJoin(obs.Ctx{}, NewSliceIter(outer), btreeIter{it}, func(int64, []byte) (bool, error) {
			got++
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != wantCount {
			t.Fatalf("seed %d: emitted %d, want %d", seed, got, wantCount)
		}
	}
}
