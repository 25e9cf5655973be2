package query

import (
	"slices"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
)

// TestArenaSecondDropFreesOnlyItsOwn: a retrieve drops each temporary
// when its consumer is done, and an error path's deferred cleanup may
// drop it again — after the retrieve has formed later temporaries in
// the same arena and other retrieves theirs in their own. The Arena
// takes a handle back only at Reset, when the retrieve returns, so that
// second Drop finds its own emptied file: it frees nothing and reports
// nothing, whichever temporaries are live by then. A Drop through a
// handle of a finished retrieve, after its Reset, is as inert until the
// arena is lent to the next retrieve (the handle is then that
// retrieve's, which is why no handle is kept past its retrieve). The
// handle lent again keeps the page list its file grew, and its own
// second Drop is as inert.
func TestArenaSecondDropFreesOnlyItsOwn(t *testing.T) {
	d := disk.NewSim()
	pool := buffer.New(d, 8)
	live := func() int64 { s := d.Stats(); return s.Allocs - s.Frees }
	fill := func(tmp *Int64Temp, n, seed int64) []int64 {
		t.Helper()
		var vs []int64
		w := tmp.Appender()
		defer w.Close()
		for v := int64(0); v < n; v++ {
			vs = append(vs, (v*7919+seed)%n)
			if err := w.Append(vs[len(vs)-1]); err != nil {
				t.Fatal(err)
			}
		}
		return vs
	}
	holds := func(name string, tmp *Int64Temp, want []int64) {
		t.Helper()
		var got []int64
		if err := tmp.Scan(func(v int64) (bool, error) { got = append(got, v); return true, nil }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s holds %d values, want its %d", name, len(got), len(want))
		}
	}
	newTemp := func(a *Arena) *Int64Temp {
		t.Helper()
		tmp, err := a.NewTemp(pool)
		if err != nil {
			t.Fatal(err)
		}
		return tmp
	}
	drop := func(name string, tmp *Int64Temp) {
		t.Helper()
		if err := tmp.Drop(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	var a, b Arena // two retrieves' arenas
	before := live()
	first := newTemp(&a)
	in := fill(first, 500, 3)
	sorted, err := a.SortTemp(pool, first, 200) // three runs and their readers, lent too
	if err != nil {
		t.Fatal(err)
	}
	drop("the first temporary", first)
	next := newTemp(&a) // the same retrieve's next level
	nextVals := fill(next, 400, 5)
	formed := live()
	other := newTemp(&b) // another retrieve's
	otherVals := fill(other, 300, 7)
	otherPages := live() - formed
	if slices.Contains(a.temps[:a.nt-1], next) {
		t.Fatal("the arena lent a handle again before Reset")
	}

	held := live()
	drop("a second Drop of the first temporary", first)
	if got := live(); got != held {
		t.Fatalf("a second Drop freed %d pages of later temporaries", held-got)
	}
	holds("the next level", next, nextVals)
	holds("the other retrieve's temporary", other, otherVals)
	slices.Sort(in)
	holds("the sorted copy", sorted, in)

	drop("the sorted copy", sorted)
	drop("the next level", next)
	a.Reset() // the retrieve returns
	for _, tmp := range []*Int64Temp{first, sorted, next} {
		drop("a finished retrieve's temporary", tmp)
	}
	if got := live() - before; got != otherPages {
		t.Fatalf("%d live pages after the first retrieve returned, want the other's %d", got, otherPages)
	}
	holds("the other retrieve's temporary, after the first returned", other, otherVals)
	drop("the other retrieve's temporary", other)
	b.Reset()
	if got := live(); got != before {
		t.Fatalf("%d live pages after every retrieve returned, %d before", got, before)
	}

	// The next retrieve on the arena is lent the handles back, each with
	// the page list it grew (heap.TestDropLendsItsPageList): the first
	// temporary's, kept through its Drop and the Reset, takes the new
	// temporary's pages, and a second Drop of the new temporary still frees nothing of another
	// retrieve's.
	again := newTemp(&a)
	if again != first {
		t.Fatal("Reset did not take the handles back for the next retrieve")
	}
	againVals := fill(again, 500, 11) // as many pages as the list kept
	later := newTemp(&b)
	laterVals := fill(later, 300, 13)
	holds("the reused handle's temporary", again, againVals)
	drop("the next retrieve's temporary", again)
	held = live()
	drop("a second Drop of the reused handle", again)
	if got := live(); got != held {
		t.Fatalf("a second Drop of the reused handle freed %d pages of another retrieve's", held-got)
	}
	holds("the other retrieve's next temporary", later, laterVals)
	drop("the other retrieve's next temporary", later)
	a.Reset()
	b.Reset()
	if got := live(); got != before {
		t.Fatalf("%d live pages after the next retrieves returned, %d before", got, before)
	}
}
