package query

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"corep/internal/btree"
	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/obs"
	"corep/internal/testutil"
)

// TestMergeJoinReleasesInnerCursor: the join hands the inner cursor's
// payload to fn as a view (valid during the call), holds no more than the
// cursor's one leaf while it runs, and whichever way it ends — outer
// exhausted, inner exhausted, outer empty, fn says stop, fn fails — the
// caller's deferred Close leaves no page pinned.
func TestMergeJoinReleasesInnerCursor(t *testing.T) {
	pool := buffer.New(disk.NewSim(), 8)
	tree, err := btree.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 400; k++ {
		if err := tree.Insert(k, []byte(fmt.Sprintf("v%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	spread := []int64{5, 5, 150, 200, 201, 390}
	all := func(int64) (bool, error) { return true, nil }
	cases := map[string]struct {
		outer []int64
		fn    func(k int64) (bool, error)
	}{
		"outer exhausted": {spread, all},
		"inner exhausted": {[]int64{-3, 7, 399, 400, 401}, all},
		"outer empty":     {nil, all},
		"fn stops":        {spread, func(k int64) (bool, error) { return k < 200, nil }},
		"fn fails": {spread, func(k int64) (bool, error) {
			if k == 200 {
				return false, boom
			}
			return true, nil
		}},
	}
	for name, c := range cases {
		join := func() error {
			it, err := tree.SeekFirst()
			if err != nil {
				return err
			}
			defer it.Close()
			err = MergeJoin(obs.Ctx{}, NewSliceIter(c.outer), it,
				func(k int64, payload []byte) (bool, error) {
					if want := fmt.Sprintf("v%03d", k); string(payload) != want {
						return false, fmt.Errorf("key %d carries %q", k, payload)
					}
					if n := pool.PinnedCount(); n != 1 {
						return false, fmt.Errorf("key %d: the join holds %d pages", k, n)
					}
					return c.fn(k)
				})
			if n := pool.PinnedCount(); n > 1 {
				return fmt.Errorf("the join returned holding %d pages", n)
			}
			return err
		}
		if err := join(); name == "fn fails" != errors.Is(err, boom) {
			t.Fatalf("%s: err = %v", name, err)
		}
		if n := pool.PinnedCount(); n != 0 {
			t.Fatalf("%s: %d pins leaked", name, n)
		}
	}
}

// referenceMergeJoin is MergeJoin as it was before the inner side could
// seek: both heads read first, the inner side moved one entry at a time
// with Next. MergeJoin must match it row for row and pin for pin.
func referenceMergeJoin(outer Int64Iter, inner *btree.Iterator, fn func(key int64, payload []byte) (bool, error)) error {
	ov, ook, err := outer.Next()
	if err != nil {
		return err
	}
	ik, ip, iok, err := inner.Next()
	if err != nil {
		return err
	}
	for ook && iok {
		switch {
		case ov < ik:
			if ov, ook, err = outer.Next(); err != nil {
				return err
			}
		case ov > ik:
			if ik, ip, iok, err = inner.Next(); err != nil {
				return err
			}
		default:
			cont, err := fn(ik, ip)
			if err != nil || !cont {
				return err
			}
			if ov, ook, err = outer.Next(); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinSide is one copy of the join-equivalence database: a tree over a
// pool smaller than it, and aliases of every frame of that pool, whose
// contents say which page each frame holds.
type joinSide struct {
	d      *disk.Sim
	pool   *buffer.Pool
	tree   *btree.Tree
	frames [][]byte
}

// newJoinSide builds the database the same way on every call: random
// keys with duplicates, a third of them then grown by Update so leaves
// are compacted and entries re-inserted. It then pins the first pages
// until every frame is held, keeping each frame's buffer.
func newJoinSide(t *testing.T) *joinSide {
	t.Helper()
	const frames = 6
	s := &joinSide{d: disk.NewSim()}
	s.pool = buffer.New(s.d, frames)
	tree, err := btree.Create(s.pool)
	if err != nil {
		t.Fatal(err)
	}
	s.tree = tree
	rng := rand.New(rand.NewSource(11))
	var keys []int64
	for i := 0; i < 1200; i++ {
		k := rng.Int63n(3000)
		if i%8 == 0 && len(keys) > 0 {
			k = keys[rng.Intn(len(keys))]
		}
		keys = append(keys, k)
		if err := tree.Insert(k, []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		k := keys[rng.Intn(len(keys))]
		if err := tree.Update(k, []byte(fmt.Sprintf("grown-%d-%040d", i, k))); err != nil {
			t.Fatal(err)
		}
	}
	if tree.LeafPages() < 4*frames {
		t.Fatalf("%d leaves: the tree must be larger than the pool", tree.LeafPages())
	}
	for id := disk.PageID(1); len(s.frames) < frames; id++ {
		buf, err := s.pool.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		s.frames = append(s.frames, buf)
	}
	for i := range s.frames {
		s.pool.Unpin(disk.PageID(i+1), false)
	}
	testutil.AssertNoLeaks(t, s.pool)
	return s
}

// resident fingerprints the page in each frame. Two sides whose
// fingerprints agree after every step evicted the same victims into the
// same frames.
func (s *joinSide) resident() string {
	var b strings.Builder
	for _, f := range s.frames {
		fmt.Fprintf(&b, "%08x ", crc32.ChecksumIEEE(f))
	}
	return b.String()
}

// joinLog is what one join did: its rows, the frames' pages at each row
// and at the end, and what it cost the pool and the disk.
type joinLog struct {
	rows, frames []string
	pool         buffer.Stats
	disk         disk.Stats
}

// join runs one join from a fresh SeekFirst, stopping after stop rows
// (all when stop < 0), and logs it.
func (s *joinSide) join(t *testing.T, outer []int64, stop int, reference bool) joinLog {
	t.Helper()
	var l joinLog
	p0, d0 := s.pool.Stats(), s.d.Stats()
	it, err := s.tree.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	fn := func(k int64, payload []byte) (bool, error) {
		l.rows = append(l.rows, fmt.Sprintf("%d:%s", k, payload))
		l.frames = append(l.frames, s.resident())
		return len(l.rows) != stop, nil
	}
	if reference {
		err = referenceMergeJoin(NewSliceIter(outer), it, fn)
	} else {
		err = MergeJoin(obs.Ctx{}, NewSliceIter(outer), it, fn)
	}
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	testutil.AssertNoLeaks(t, s.pool)
	l.frames = append(l.frames, s.resident())
	l.pool, l.disk = s.pool.Stats().Sub(p0), s.d.Stats().Sub(d0)
	return l
}

// TestMergeJoinMatchesNextJoin: on a tree larger than the pool, with
// duplicate keys and leaves re-packed by growing updates, the join that
// moves its inner side with NextGE emits the rows the Next-driven
// reference emits and costs the pool and the disk exactly the same —
// pins, hits, misses, reads, writes, and the victim of every eviction —
// for random sorted outer sides with duplicates, values below the first
// key and past the last, an empty one, and joins stopped early.
func TestMergeJoinMatchesNextJoin(t *testing.T) {
	seek, ref := newJoinSide(t), newJoinSide(t)
	if seek.resident() != ref.resident() || seek.pool.Stats() != ref.pool.Stats() || seek.d.Stats() != ref.d.Stats() {
		t.Fatal("the two builds differ")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(400)
		if trial == 0 {
			n = 0 // an empty outer side
		}
		var outer []int64
		for len(outer) < n {
			v := rng.Int63n(3300) - 150
			for dup := rng.Intn(3); dup >= 0; dup-- {
				outer = append(outer, v)
			}
		}
		slices.Sort(outer)
		stop := -1
		if trial%5 == 4 {
			stop = rng.Intn(20)
		}
		got, want := seek.join(t, outer, stop, false), ref.join(t, outer, stop, true)
		if !slices.Equal(got.rows, want.rows) {
			t.Fatalf("trial %d (%d outer values): rows\n%v\nreference\n%v", trial, len(outer), got.rows, want.rows)
		}
		if got.pool != want.pool || got.disk != want.disk {
			t.Fatalf("trial %d: pool %+v disk %+v, reference pool %+v disk %+v", trial, got.pool, got.disk, want.pool, want.disk)
		}
		if !slices.Equal(got.frames, want.frames) {
			t.Fatalf("trial %d: the frames hold different pages", trial)
		}
	}
}

// TestAppendRunEqualsAppendLoop: a TempAppender run must leave the
// temporary, the disk and the pool exactly where a loop of Append calls
// leaves them — same values, same page chain, same reads and writes —
// while pinning the tail once per page instead of once per value.
func TestAppendRunEqualsAppendLoop(t *testing.T) {
	const n = 2000 // a dozen heap pages through a 4-frame pool
	build := func(run bool) (*Int64Temp, *buffer.Pool, *disk.Sim) {
		d := disk.NewSim()
		pool := buffer.New(d, 4)
		tmp, err := NewInt64Temp(pool)
		if err != nil {
			t.Fatal(err)
		}
		if run {
			w := tmp.Appender()
			for v := int64(0); v < n; v++ {
				if err := w.Append(v * 3); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			w.Close() // idempotent
		} else {
			for v := int64(0); v < n; v++ {
				if err := tmp.Append(v * 3); err != nil {
					t.Fatal(err)
				}
			}
		}
		testutil.AssertNoLeaks(t, pool)
		return tmp, pool, d
	}
	loop, loopPool, loopDisk := build(false)
	run, runPool, runDisk := build(true)
	if loop.Count() != n || run.Count() != n {
		t.Fatalf("counts %d / %d", loop.Count(), run.Count())
	}
	if loopDisk.Stats() != runDisk.Stats() {
		t.Fatalf("disk traffic differs: loop %+v, run %+v", loopDisk.Stats(), runDisk.Stats())
	}
	ls, rs := loopPool.Stats(), runPool.Stats()
	if ls.Misses != rs.Misses || ls.Flushes != rs.Flushes {
		t.Fatalf("pool misses/flushes differ: loop %+v, run %+v", ls, rs)
	}
	if rs.Pins >= ls.Pins/10 {
		t.Fatalf("run took %d pins, loop %d: the tail was not held", rs.Pins, ls.Pins)
	}
	var i int64
	err := run.Scan(func(v int64) (bool, error) {
		if v != i*3 {
			return false, fmt.Errorf("value %d = %d", i, v)
		}
		i++
		return true, nil
	})
	if err != nil || i != n {
		t.Fatalf("scan: %v after %d values", err, i)
	}
	testutil.AssertNoLeaks(t, runPool)
}
