package heap

import (
	"bytes"
	"fmt"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/storage"
)

func newPool() *buffer.Pool {
	return buffer.New(disk.NewSim(), 16)
}

// records reads f back with Scan: a copy of every live record by RID.
func records(t *testing.T, f *File) map[storage.RID][]byte {
	t.Helper()
	out := map[storage.RID][]byte{}
	if err := f.Scan(func(rid storage.RID, rec []byte) bool {
		out[rid] = bytes.Clone(rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCreateEmpty(t *testing.T) {
	f, err := Create(newPool())
	if err != nil {
		t.Fatal(err)
	}
	if f.Count() != 0 {
		t.Fatalf("count = %d", f.Count())
	}
	n := 0
	if err := f.Scan(func(storage.RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("scanned %d records from empty file", n)
	}
	if len(f.pages) != 1 {
		t.Fatalf("pages = %d", len(f.pages))
	}
}

func TestAppendGet(t *testing.T) {
	f, err := Create(newPool())
	if err != nil {
		t.Fatal(err)
	}
	rid, err := f.Append([]byte("record-one"))
	if err != nil {
		t.Fatal(err)
	}
	if got := records(t, f)[rid]; string(got) != "record-one" {
		t.Fatalf("got %q", got)
	}
}

func TestAppendGrowsChain(t *testing.T) {
	f, err := Create(newPool())
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 500)
	const n = 40 // 40*504B >> one 2KB page
	rids := make([]storage.RID, n)
	for i := 0; i < n; i++ {
		rec[0] = byte(i)
		rid, err := f.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if f.Count() != n {
		t.Fatalf("count = %d", f.Count())
	}
	if len(f.pages) < 10 {
		t.Fatalf("pages = %d, expected chain growth", len(f.pages))
	}
	recs := records(t, f)
	for i, rid := range rids {
		if got := recs[rid]; len(got) != len(rec) || got[0] != byte(i) {
			t.Fatalf("record %d = %d", i, got[0])
		}
	}
}

func TestScanOrder(t *testing.T) {
	f, err := Create(newPool())
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := f.Append([]byte(fmt.Sprintf("rec-%03d-%s", i, bytes.Repeat([]byte("x"), 80)))); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	err = f.Scan(func(rid storage.RID, rec []byte) bool {
		want := fmt.Sprintf("rec-%03d-", i)
		if string(rec[:len(want)]) != want {
			t.Fatalf("record %d = %q", i, rec[:len(want)])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d, want %d", i, n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	f, _ := Create(newPool())
	for i := 0; i < 10; i++ {
		if _, err := f.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := f.Scan(func(storage.RID, []byte) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("visited %d", n)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	f, _ := Create(newPool())
	if _, err := f.Append(make([]byte, disk.PageSize)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestAppendCostsIO(t *testing.T) {
	// Forming a temporary relation must cost real page I/O once the file
	// exceeds the buffer (the BFS temp-formation cost from §3.1).
	d := disk.NewSim()
	pool := buffer.New(d, 2)
	f, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 500)
	for i := 0; i < 50; i++ {
		if _, err := f.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Writes == 0 {
		t.Fatal("no disk writes charged for temp formation")
	}
	if pool.PinnedCount() != 0 {
		t.Fatalf("leaked pins: %d", pool.PinnedCount())
	}
}

// TestDropLendsItsPageList: files formed one after another, each
// dropped before the next is created — a retrieve's temporaries. Each
// Drop frees exactly its own file's pages, a file formed in a dropped
// one's handle (CreateInto) keeps its pages in the list the dropped one
// grew, and a second Drop of a dropped file frees nothing and reports
// nothing.
func TestDropLendsItsPageList(t *testing.T) {
	d := disk.NewSim()
	pool := buffer.New(d, 16)
	live := func() int64 { s := d.Stats(); return s.Allocs - s.Frees }
	rec := bytes.Repeat([]byte{7}, 100)
	fill := func(f *File, n int) {
		t.Helper()
		a := f.Appender()
		defer a.Close()
		for i := 0; i < n; i++ {
			if _, err := a.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	var prev *File
	for i, n := range []int{200, 30, 500, 0, 90} {
		before := live()
		f, err := Create(pool)
		if err != nil {
			t.Fatal(err)
		}
		fill(f, n)
		pages := len(f.pages)
		if got := live() - before; got != int64(pages) {
			t.Fatalf("file %d: %d live pages for a %d-page chain", i, got, pages)
		}
		if prev != nil {
			if err := prev.Drop(); err != nil {
				t.Fatalf("second Drop of file %d: %v", i-1, err)
			}
		}
		if got := live() - before; got != int64(pages) {
			t.Fatalf("file %d: a second Drop of its predecessor freed %d of its pages", i, int64(pages)-(live()-before))
		}
		if err := f.Drop(); err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
		if got := live(); got != before {
			t.Fatalf("file %d: %d live pages after Drop, %d before it was created", i, got, before)
		}
		prev = f
	}

	// One handle, one file after another: each grows into the page list
	// the one before it kept through its Drop.
	var h File
	for i, n := range []int{500, 200, 500} {
		before := live()
		if err := CreateInto(&h, pool); err != nil {
			t.Fatal(err)
		}
		kept := h.pages[:cap(h.pages)]
		fill(&h, n)
		if i > 0 && &h.pages[0] != &kept[0] {
			t.Fatalf("file %d in a dropped file's handle grew a new page list", i)
		}
		for range 2 {
			if err := h.Drop(); err != nil {
				t.Fatalf("file %d in a reused handle: %v", i, err)
			}
			if got := live(); got != before {
				t.Fatalf("file %d in a reused handle: %d live pages after Drop, %d before", i, got, before)
			}
		}
	}
}
