package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"corep/internal/disk"
)

func newPage(t PageType) Page {
	p := Page{Buf: make([]byte, disk.PageSize)}
	p.Init(t)
	return p
}

func TestInitEmpty(t *testing.T) {
	p := newPage(TypeHeap)
	if p.Type() != TypeHeap {
		t.Fatalf("type = %v", p.Type())
	}
	if p.NumSlots() != 0 {
		t.Fatalf("slots = %d", p.NumSlots())
	}
	if p.Next() != disk.InvalidPageID || p.Prev() != disk.InvalidPageID {
		t.Fatal("fresh page has chain pointers")
	}
	want := disk.PageSize - 24 - 4
	if p.FreeSpace() != want {
		t.Fatalf("free = %d, want %d", p.FreeSpace(), want)
	}
}

func TestInsertAndRecord(t *testing.T) {
	p := newPage(TypeHeap)
	recs := [][]byte{[]byte("alpha"), []byte("b"), []byte("gamma-gamma")}
	for i, r := range recs {
		slot, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		if slot != i {
			t.Fatalf("slot = %d, want %d", slot, i)
		}
	}
	for i, r := range recs {
		got, err := p.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, r) {
			t.Fatalf("record %d = %q, want %q", i, got, r)
		}
	}
}

func TestInsertUntilFull(t *testing.T) {
	p := newPage(TypeHeap)
	rec := make([]byte, 100)
	n := 0
	for {
		_, err := p.Insert(rec)
		if errors.Is(err, ErrPageFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	// 2048 - 24 header; each record costs 100 + 4 slot = 104.
	if want := (disk.PageSize - 24) / 104; n != want {
		t.Fatalf("inserted %d records, want %d", n, want)
	}
	if p.FreeSpace() > 104 {
		t.Fatalf("free space %d after full", p.FreeSpace())
	}
}

func TestDeleteAndLiveRecords(t *testing.T) {
	p := newPage(TypeHeap)
	for i := 0; i < 5; i++ {
		if _, err := p.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Delete(2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Record(2); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("deleted slot read: err = %v", err)
	}
	var seen []byte
	p.LiveRecords(func(slot int, rec []byte) bool {
		seen = append(seen, rec[0])
		return true
	})
	if !bytes.Equal(seen, []byte{0, 1, 3, 4}) {
		t.Fatalf("live = %v", seen)
	}
}

func TestLiveRecordsEarlyStop(t *testing.T) {
	p := newPage(TypeHeap)
	for i := 0; i < 5; i++ {
		_, _ = p.Insert([]byte{byte(i)})
	}
	n := 0
	p.LiveRecords(func(int, []byte) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("visited %d, want 2", n)
	}
}

func TestUpdateInPlace(t *testing.T) {
	p := newPage(TypeHeap)
	if _, err := p.Insert([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	free := p.FreeSpace()
	if err := p.Update(0, []byte("HELLO")); err != nil { // smaller: in place
		t.Fatal(err)
	}
	if p.FreeSpace() != free {
		t.Fatal("in-place update consumed space")
	}
	got, _ := p.Record(0)
	if string(got) != "HELLO" {
		t.Fatalf("record = %q", got)
	}
}

func TestUpdateGrow(t *testing.T) {
	p := newPage(TypeHeap)
	if _, err := p.Insert([]byte("x")); err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte("y"), 300)
	if err := p.Update(0, long); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Record(0)
	if !bytes.Equal(got, long) {
		t.Fatal("grown record mismatch")
	}
	if p.NumSlots() != 1 {
		t.Fatalf("slots = %d, want 1", p.NumSlots())
	}
}

func TestUpdateErrors(t *testing.T) {
	p := newPage(TypeHeap)
	if err := p.Update(0, []byte("x")); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("update empty: %v", err)
	}
	_, _ = p.Insert([]byte("a"))
	_ = p.Delete(0)
	if err := p.Update(0, []byte("x")); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("update deleted: %v", err)
	}
}

func TestInsertAtKeepsOrder(t *testing.T) {
	p := newPage(TypeBTLeaf)
	// Insert 0,2,4 then 1,3 in the gaps.
	for _, v := range []byte{0, 2, 4} {
		if _, err := p.Insert([]byte{v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.InsertAt(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertAt(3, []byte{3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rec, err := p.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if rec[0] != byte(i) {
			t.Fatalf("slot %d = %d", i, rec[0])
		}
	}
}

func TestInsertAtBounds(t *testing.T) {
	p := newPage(TypeBTLeaf)
	if err := p.InsertAt(1, []byte{9}); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("insert past end: %v", err)
	}
	if err := p.InsertAt(0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertAt(-1, []byte{9}); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("negative slot: %v", err)
	}
}

func TestRemoveAt(t *testing.T) {
	p := newPage(TypeBTLeaf)
	for i := byte(0); i < 4; i++ {
		_, _ = p.Insert([]byte{i})
	}
	if err := p.RemoveAt(1); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 3 {
		t.Fatalf("slots = %d", p.NumSlots())
	}
	want := []byte{0, 2, 3}
	for i, w := range want {
		rec, err := p.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if rec[0] != w {
			t.Fatalf("slot %d = %d, want %d", i, rec[0], w)
		}
	}
	if err := p.RemoveAt(3); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("remove past end: %v", err)
	}
}

func TestCompactReclaims(t *testing.T) {
	p := newPage(TypeHashBkt)
	p.SetNext(7)
	p.SetAux(99)
	rec := make([]byte, 200)
	var slots []int
	for {
		s, err := p.Insert(rec)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	// Delete every other record, compact, and verify space came back.
	for i := 0; i < len(slots); i += 2 {
		_ = p.Delete(slots[i])
	}
	p.Compact()
	if p.Next() != 7 || p.Aux() != 99 {
		t.Fatal("compact lost header fields")
	}
	liveBefore := len(slots) / 2
	if p.NumSlots() != liveBefore {
		t.Fatalf("slots = %d, want %d", p.NumSlots(), liveBefore)
	}
	if _, err := p.Insert(rec); err != nil {
		t.Fatalf("insert after compact: %v", err)
	}
}

func TestInsertRecordRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newPage(TypeHeap)
		var want [][]byte
		for {
			rec := make([]byte, 1+rng.Intn(150))
			rng.Read(rec)
			if _, err := p.Insert(rec); err != nil {
				break
			}
			want = append(want, rec)
		}
		for i, w := range want {
			got, err := p.Record(i)
			if err != nil || !bytes.Equal(got, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRIDString(t *testing.T) {
	if got := (RID{Page: 3, Slot: 2}).String(); got != "(3,2)" {
		t.Fatalf("string = %q", got)
	}
}

// compactReference is Compact as it stood while it still allocated: copy
// every live record to the heap, reformat the page, insert them again.
func compactReference(p Page) {
	var live [][]byte
	p.LiveRecords(func(_ int, rec []byte) bool {
		live = append(live, append([]byte(nil), rec...))
		return true
	})
	t, next, prev, aux := p.Type(), p.Next(), p.Prev(), p.Aux()
	p.Init(t)
	p.SetNext(next)
	p.SetPrev(prev)
	p.SetAux(aux)
	for _, rec := range live {
		if _, err := p.Insert(rec); err != nil {
			panic("storage: compact overflow")
		}
	}
}

// fragmentedPage fills a page the way the access method owning its type
// does, until it holds dead slots or dead record bodies: a hash bucket
// appends entries and deletes them by slot; a B-tree leaf keeps slot
// order with InsertAt and RemoveAt and re-packs grown records.
func fragmentedPage(rng *rand.Rand, typ PageType) Page {
	p := newPage(typ)
	p.SetNext(disk.PageID(rng.Uint32()))
	p.SetPrev(disk.PageID(rng.Uint32()))
	p.SetAux(rng.Uint64())
	rec := func() []byte {
		r := make([]byte, 1+rng.Intn(120))
		rng.Read(r)
		return r
	}
	for op := 0; op < 40+rng.Intn(200); op++ {
		n := p.NumSlots()
		switch {
		case typ == TypeHashBkt && n > 0 && rng.Intn(3) == 0:
			_ = p.Delete(rng.Intn(n))
		case typ == TypeHashBkt:
			_, _ = p.Insert(rec()) // a full page refuses: the state Compact is called in
		case n > 0 && rng.Intn(4) == 0:
			_ = p.RemoveAt(rng.Intn(n))
		case n > 0 && rng.Intn(3) == 0:
			_ = p.Update(rng.Intn(n), rec())
		default:
			_ = p.InsertAt(rng.Intn(n+1), rec())
		}
	}
	return p
}

// TestCompactMatchesReference holds the allocation-free Compact to the
// copying one it replaced: the same page, byte for byte, for both page
// types that reach it, and no allocation on the way (the outside cache
// compacts a bucket on nearly every insert at capacity).
func TestCompactMatchesReference(t *testing.T) {
	for _, typ := range []PageType{TypeHashBkt, TypeBTLeaf} {
		for seed := int64(1); seed <= 200; seed++ {
			p := fragmentedPage(rand.New(rand.NewSource(seed)), typ)
			want, free := Page{Buf: bytes.Clone(p.Buf)}, p.FreeSpace()
			compactReference(want)
			p.Compact()
			if !bytes.Equal(p.Buf, want.Buf) {
				t.Fatalf("type %d seed %d: compacted page differs from the reference", typ, seed)
			}
			if p.NumSlots() == 0 || p.FreeSpace() <= free {
				t.Fatalf("type %d seed %d: script left nothing live or nothing to reclaim", typ, seed)
			}
		}
	}
	p := fragmentedPage(rand.New(rand.NewSource(1)), TypeHashBkt)
	if allocs := testing.AllocsPerRun(100, p.Compact); allocs != 0 {
		t.Errorf("Compact allocates %.0f objects per call, want 0", allocs)
	}
}

// TestInt64KernelsMatchRecordLoops: InsertInt64s leaves the page an
// Insert loop leaves, behind records of other lengths and up to the
// page-full boundary, and AppendInt64s reads back what LiveRecords
// yields, past dead slots, refusing a live record of another length.
func TestInt64KernelsMatchRecordLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		loop, kernel := newPage(TypeHeap), newPage(TypeHeap)
		for i, n := 0, rng.Intn(6); i < n; i++ {
			rec := make([]byte, 1+rng.Intn(40))
			rng.Read(rec)
			loop.Insert(rec)
			kernel.Insert(rec)
		}
		vs := make([]int64, rng.Intn(Int64sPerPage+20))
		for i := range vs {
			vs[i] = rng.Int63() - rng.Int63()
		}
		stored := 0
		for _, v := range vs {
			var rec [8]byte
			binary.LittleEndian.PutUint64(rec[:], uint64(v))
			if _, err := loop.Insert(rec[:]); err != nil {
				break
			}
			stored++
		}
		if k := kernel.InsertInt64s(vs); k != stored || !bytes.Equal(loop.Buf, kernel.Buf) {
			t.Fatalf("trial %d: InsertInt64s stored %d of %d (loop %d), pages equal %v", trial, k, len(vs), stored, bytes.Equal(loop.Buf, kernel.Buf))
		}

		// Keep only the int64 records, killing some of them.
		for i := 0; i < kernel.NumSlots(); i++ {
			if rec, _ := kernel.Record(i); len(rec) != 8 || rng.Intn(5) == 0 {
				kernel.Delete(i)
			}
		}
		var want []int64
		kernel.LiveRecords(func(_ int, rec []byte) bool {
			want = append(want, int64(binary.LittleEndian.Uint64(rec)))
			return true
		})
		got, err := kernel.AppendInt64s([]int64{42})
		if err != nil || !slices.Equal(got, append([]int64{42}, want...)) {
			t.Fatalf("trial %d: AppendInt64s %v, %v; LiveRecords %v", trial, got, err, want)
		}
	}
	p := newPage(TypeHeap)
	p.InsertInt64s([]int64{1, 2})
	p.Insert([]byte("seven b"))
	p.InsertInt64s([]int64{3})
	if got, err := p.AppendInt64s(nil); !errors.Is(err, ErrBadSlot) || !slices.Equal(got, []int64{1, 2}) {
		t.Fatalf("AppendInt64s over a 7-byte record: %v, %v", got, err)
	}
}

// TestHeadReadsEntryPrefix: Head reads a record's first 12 bytes as a
// uint64 and a uint32 in place, and refuses a slot out of range, a dead
// one and a record too short to hold them.
func TestHeadReadsEntryPrefix(t *testing.T) {
	p := newPage(TypeBTLeaf)
	rec := binary.LittleEndian.AppendUint64(nil, 1<<63|5)
	rec = binary.LittleEndian.AppendUint32(rec, 77)
	p.Insert(append(rec, "payload"...))
	p.Insert(rec[:11])
	p.Insert(rec)
	p.Delete(2)
	if u, s, ok := p.Head(0); !ok || u != 1<<63|5 || s != 77 {
		t.Fatalf("Head(0) = %d, %d, %v", u, s, ok)
	}
	for _, i := range []int{-1, 1, 2, 3} {
		if _, _, ok := p.Head(i); ok {
			t.Fatalf("Head(%d) read an entry", i)
		}
	}
}
