package query

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/testutil"
)

// referenceSortTemp is SortTemp as it was before its runs were
// radix-sorted: a fresh run buffer per call, sorted with slices.Sort.
// SortTemp must match it value for value and I/O for I/O.
func referenceSortTemp(pool *buffer.Pool, in *Int64Temp, workMem int) (_ *Int64Temp, err error) {
	if workMem < 2 {
		workMem = 2
	}
	var runs []*Int64Temp
	defer func() {
		if err != nil || len(runs) > 1 {
			for _, r := range runs {
				r.Drop()
			}
		}
	}()
	cur := make([]int64, 0, min(workMem, in.Count()))
	flush := func() error {
		if len(cur) == 0 {
			return nil
		}
		slices.Sort(cur)
		run, err := NewInt64Temp(pool)
		if err != nil {
			return err
		}
		runs = append(runs, run)
		w := run.Appender()
		defer w.Close()
		for _, v := range cur {
			if err := w.Append(v); err != nil {
				return err
			}
		}
		cur = cur[:0]
		return nil
	}
	err = in.Scan(func(v int64) (bool, error) {
		cur = append(cur, v)
		if len(cur) >= workMem {
			if err := flush(); err != nil {
				return false, err
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return NewInt64Temp(pool)
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	out, err := NewInt64Temp(pool)
	if err != nil {
		return nil, err
	}
	iters := make([]Int64Iter, len(runs))
	for i, r := range runs {
		iters[i] = r.Iter()
	}
	heads := make([]int64, len(runs))
	alive := make([]bool, len(runs))
	for i, it := range iters {
		v, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		heads[i], alive[i] = v, ok
	}
	w := out.Appender()
	defer w.Close()
	for {
		best := -1
		for i := range heads {
			if alive[i] && (best < 0 || heads[i] < heads[best]) {
				best = i
			}
		}
		if best < 0 {
			return out, nil
		}
		if err := w.Append(heads[best]); err != nil {
			return nil, err
		}
		v, ok, err := iters[best].Next()
		if err != nil {
			return nil, err
		}
		heads[best], alive[best] = v, ok
	}
}

// sortRun is one side of a SortTemp comparison: the sorted values and
// what producing them cost the disk and the pool.
type sortRun struct {
	vals []int64
	disk disk.Stats
	pool buffer.Stats
}

// runSort appends vals to a temporary on a fresh 8-frame pool, sorts it
// with sort and reads the result back. Its Scan is charged too, so a
// result left on different pages would show.
func runSort(t testing.TB, sort func(*buffer.Pool, *Int64Temp, int) (*Int64Temp, error), vals []int64, workMem int) sortRun {
	t.Helper()
	d := disk.NewSim()
	pool := buffer.New(d, 8)
	in, err := NewInt64Temp(pool)
	if err != nil {
		t.Fatal(err)
	}
	w := in.Appender()
	for _, v := range vals {
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	out, err := sort(pool, in, workMem)
	if err != nil {
		t.Fatal(err)
	}
	r := sortRun{vals: []int64{}}
	err = out.Scan(func(v int64) (bool, error) {
		r.vals = append(r.vals, v)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	testutil.AssertNoLeaks(t, pool)
	r.disk, r.pool = d.Stats(), pool.Stats()
	return r
}

// checkSortMatchesReference holds SortTemp to referenceSortTemp on vals.
func checkSortMatchesReference(t testing.TB, vals []int64, workMem int) {
	t.Helper()
	got := runSort(t, SortTemp, vals, workMem)
	want := runSort(t, referenceSortTemp, vals, workMem)
	if !slices.Equal(got.vals, want.vals) {
		t.Fatalf("%d values, workMem %d: sorted to %v, reference %v", len(vals), workMem, got.vals, want.vals)
	}
	if got.disk != want.disk {
		t.Fatalf("%d values, workMem %d: disk %+v, reference %+v", len(vals), workMem, got.disk, want.disk)
	}
	if got.pool != want.pool {
		t.Fatalf("%d values, workMem %d: pool %+v, reference %+v", len(vals), workMem, got.pool, want.pool)
	}
}

// TestSortTempMatchesReference: the radix-sorted runs leave the same
// output, the same disk traffic and the same pool counters as a
// comparison sort, on the shapes a byte-wise sort can get wrong and on
// random temporaries larger and smaller than the work memory.
func TestSortTempMatchesReference(t *testing.T) {
	ascending := make([]int64, 3000)
	for i := range ascending {
		ascending[i] = int64(i) * 37
	}
	descending := slices.Clone(ascending)
	slices.Reverse(descending)
	equal := make([]int64, 700)
	for i := range equal {
		equal[i] = -42
	}
	cases := map[string][]int64{
		"empty":       nil,
		"one":         {math.MinInt64},
		"two":         {5, -5},
		"all equal":   equal,
		"ascending":   ascending,
		"descending":  descending,
		"negative":    {-1, -300, -2, -70000, -1 << 40, -3, -256, -255},
		"full range":  {math.MaxInt64, math.MinInt64, 0, -1, 1, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1},
		"one byte":    {255, 0, 128, 1, 254, 127},
		"byte border": {256, 255, 257, 65535, 65536, 0},
	}
	for name, vals := range cases {
		for _, workMem := range []int{2, 3, 50, 1344, 5000} {
			t.Run(name, func(t *testing.T) { checkSortMatchesReference(t, vals, workMem) })
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		vals := make([]int64, rng.Intn(4000))
		spread := int64(1) << uint(rng.Intn(63))
		for j := range vals {
			vals[j] = rng.Int63n(spread) - spread/2
		}
		// Work memory below, near and above the value count: the k-way
		// merge runs for most of them.
		checkSortMatchesReference(t, vals, 2+rng.Intn(2*len(vals)+2))
	}
}

// FuzzSortTemp holds SortTemp to referenceSortTemp on fuzzed values (8
// little-endian bytes each) and work memory.
func FuzzSortTemp(f *testing.F) {
	seed := func(workMem uint16, vals ...int64) {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		f.Add(b, workMem)
	}
	seed(10)
	seed(10, 7)
	seed(1, 3, 1, 2)
	seed(3, math.MaxInt64, math.MinInt64, -1, 0, 1, math.MinInt64)
	seed(1344, 1000, 999, 256, 255, 65536, -65536)
	f.Fuzz(func(t *testing.T, raw []byte, workMem uint16) {
		vals := make([]int64, 0, min(len(raw)/8, 4096))
		for len(raw) >= 8 && len(vals) < cap(vals) {
			vals = append(vals, int64(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		checkSortMatchesReference(t, vals, int(workMem%2048))
	})
}
