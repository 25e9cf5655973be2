package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/storage"
	"corep/internal/testutil"
)

// formedTemp is a temporary formed on a fresh disk and a 4-frame pool,
// with what forming it cost.
type formedTemp struct {
	tmp  *Int64Temp
	pool *buffer.Pool
	disk *disk.Sim
	ds   disk.Stats
	ps   buffer.Stats
}

// formTemp appends vals to a new temporary in runs of the given lengths
// (the last run takes what is left), each run one TempAppender: with
// AppendAll per run when pages is set, with one Append per value if
// not.
func formTemp(t testing.TB, vals []int64, runs []int, pages bool) formedTemp {
	t.Helper()
	d := disk.NewSim()
	pool := buffer.New(d, 4)
	tmp, err := NewInt64Temp(pool)
	if err != nil {
		t.Fatal(err)
	}
	rest := vals
	for i := 0; i <= len(runs); i++ {
		n := len(rest)
		if i < len(runs) {
			n = min(runs[i], n)
		}
		w := tmp.Appender()
		if pages {
			err = w.AppendAll(rest[:n])
		} else {
			for _, v := range rest[:n] {
				if err = w.Append(v); err != nil {
					break
				}
			}
		}
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	testutil.AssertNoLeaks(t, pool)
	return formedTemp{tmp: tmp, pool: pool, disk: d, ds: d.Stats(), ps: pool.Stats()}
}

// checkTempRuns holds AppendAll to the per-value Append loop and ReadAll
// to Scan on vals cut into runs: the same counts, the same reads,
// writes and pool counters, byte-identical pages under the same page
// ids (so the same chain), and the same values back.
func checkTempRuns(t testing.TB, vals []int64, runs []int) {
	t.Helper()
	loop, all := formTemp(t, vals, runs, false), formTemp(t, vals, runs, true)
	if loop.tmp.Count() != len(vals) || all.tmp.Count() != len(vals) {
		t.Fatalf("%d values: counts %d (loop) / %d (AppendAll)", len(vals), loop.tmp.Count(), all.tmp.Count())
	}
	if loop.ds != all.ds || loop.ps != all.ps {
		t.Fatalf("%d values in runs %v: loop disk %+v pool %+v, AppendAll disk %+v pool %+v", len(vals), runs, loop.ds, loop.ps, all.ds, all.ps)
	}

	// Read the loop's temporary with Scan and AppendAll's with ReadAll
	// from the same pool state: the same values for the same I/O.
	scanned := []int64{}
	err := loop.tmp.Scan(func(v int64) (bool, error) {
		scanned = append(scanned, v)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	read, err := all.tmp.ReadAll([]int64{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(scanned, vals) || !slices.Equal(read, scanned) {
		t.Fatalf("%d values: Scan gave %d, ReadAll %d, or out of order", len(vals), len(scanned), len(read))
	}
	if loop.disk.Stats() != all.disk.Stats() || loop.pool.Stats() != all.pool.Stats() {
		t.Fatalf("Scan disk %+v pool %+v, ReadAll disk %+v pool %+v", loop.disk.Stats(), loop.pool.Stats(), all.disk.Stats(), all.pool.Stats())
	}
	testutil.AssertNoLeaks(t, all.pool)

	if err := loop.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := all.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if loop.disk.NumPages() != all.disk.NumPages() {
		t.Fatalf("loop issued %d pages, AppendAll %d", loop.disk.NumPages(), all.disk.NumPages())
	}
	lb, ab := make([]byte, disk.PageSize), make([]byte, disk.PageSize)
	for id := disk.PageID(1); int(id) <= loop.disk.NumPages(); id++ {
		if err := loop.disk.Read(id, lb); err != nil {
			t.Fatal(err)
		}
		if err := all.disk.Read(id, ab); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lb, ab) {
			t.Fatalf("%d values in runs %v: page %d differs", len(vals), runs, id)
		}
	}
}

// TestAppendAllMatchesAppendLoop: random values cut into random runs,
// and the page-full boundary — a run or a temporary ending exactly at a
// full page, one value before it and one after — each over a chain that
// grows.
func TestAppendAllMatchesAppendLoop(t *testing.T) {
	const page = storage.Int64sPerPage
	seq := func(n int) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = int64(i)*7919 - 1<<40
		}
		return vs
	}
	for _, n := range []int{0, 1, page - 1, page, page + 1, 2 * page, 5*page + 3} {
		checkTempRuns(t, seq(n), nil)
	}
	checkTempRuns(t, seq(3*page), []int{page, page})
	checkTempRuns(t, seq(3*page), []int{page - 1, 1, 0, page + 1})
	checkTempRuns(t, seq(3*page), []int{1, page, page - 2})
	checkTempRuns(t, []int64{math.MinInt64, -1, 0, math.MaxInt64}, []int{2})

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		vals := make([]int64, rng.Intn(6*page))
		for i := range vals {
			vals[i] = rng.Int63() - rng.Int63()
		}
		runs := make([]int, rng.Intn(8))
		for i := range runs {
			runs[i] = rng.Intn(2 * page)
		}
		checkTempRuns(t, vals, runs)
	}
}

// TestReadAllRefusesAForeignRecord: a temporary page holding a record
// that is not an int64's 8 bytes makes ReadAll return ErrBadSlot, with
// nothing left pinned, where Scan panics decoding it.
func TestReadAllRefusesAForeignRecord(t *testing.T) {
	f := formTemp(t, []int64{1, 2, 3}, nil, true)
	const first = disk.PageID(1) // the temporary's only page on a fresh disk
	buf, err := f.pool.Pin(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := (storage.Page{Buf: buf}).Update(1, []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.pool.Unpin(first, true)
	if vs, err := f.tmp.ReadAll(nil); !errors.Is(err, storage.ErrBadSlot) || !slices.Equal(vs, []int64{1}) {
		t.Fatalf("ReadAll over a 4-byte record: %v, %v", vs, err)
	}
	testutil.AssertNoLeaks(t, f.pool)
	it := f.tmp.Iter()
	if _, _, err := it.Next(); !errors.Is(err, storage.ErrBadSlot) {
		t.Fatalf("TempIter over a 4-byte record: %v", err)
	}
	testutil.AssertNoLeaks(t, f.pool)
}

// FuzzTempRuns holds AppendAll and ReadAll to the per-value loop and
// Scan (checkTempRuns) on fuzzed values, 8 little-endian bytes each, cut
// into runs of one fuzzed byte's length each.
func FuzzTempRuns(f *testing.F) {
	seed := func(runs []byte, vals ...int64) {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		f.Add(b, runs)
	}
	seed(nil)
	seed([]byte{0, 1}, 7, -7)
	seed([]byte{byte(storage.Int64sPerPage)}, make([]int64, storage.Int64sPerPage+1)...)
	seed([]byte{255, 3, 0, 200}, make([]int64, 3*storage.Int64sPerPage)...)
	f.Fuzz(func(t *testing.T, raw, runBytes []byte) {
		vals := make([]int64, 0, min(len(raw)/8, 4096))
		for len(raw) >= 8 && len(vals) < cap(vals) {
			vals = append(vals, int64(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		runs := make([]int, min(len(runBytes), 64))
		for i := range runs {
			runs[i] = int(runBytes[i])
		}
		checkTempRuns(t, vals, runs)
	})
}
