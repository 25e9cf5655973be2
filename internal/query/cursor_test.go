package query

import (
	"errors"
	"fmt"
	"testing"

	"corep/internal/btree"
	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/obs"
	"corep/internal/testutil"
)

// TestMergeJoinReleasesInnerCursor: the join hands the inner cursor's
// payload to fn as a view (valid during the call), and whichever way it
// ends — outer exhausted, fn says stop, fn fails — the caller's deferred
// Close leaves no page pinned.
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
	cases := map[string]func(k int64) (bool, error){
		"outer exhausted": func(int64) (bool, error) { return true, nil },
		"fn stops":        func(k int64) (bool, error) { return k < 200, nil },
		"fn fails": func(k int64) (bool, error) {
			if k == 200 {
				return false, boom
			}
			return true, nil
		},
	}
	for name, fn := range cases {
		join := func() error {
			it, err := tree.SeekFirst()
			if err != nil {
				return err
			}
			defer it.Close()
			// *btree.Iterator is a KeyedIter as it stands.
			return MergeJoin(obs.Ctx{}, NewSliceIter([]int64{5, 5, 150, 200, 201, 390}), it,
				func(k int64, payload []byte) (bool, error) {
					if want := fmt.Sprintf("v%03d", k); string(payload) != want {
						return false, fmt.Errorf("key %d carries %q", k, payload)
					}
					return fn(k)
				})
		}
		if err := join(); name == "fn fails" != errors.Is(err, boom) {
			t.Fatalf("%s: err = %v", name, err)
		}
		if n := pool.PinnedCount(); n != 0 {
			t.Fatalf("%s: %d pins leaked", name, n)
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
