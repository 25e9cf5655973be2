package strategy

import (
	"errors"
	"slices"
	"testing"

	"corep/internal/disk"
	"corep/internal/query"
	"corep/internal/testutil"
	"corep/internal/workload"
)

// livePages is the number of pages allocated on db's disk and not yet
// freed.
func livePages(d *disk.Sim) int64 {
	s := d.Stats()
	return s.Allocs - s.Frees
}

// failNth fails the nth disk operation after it is installed with a
// permanent fault, which the pool does not retry; *fired reports whether
// it got that far.
func failNth(n int, fired *bool) disk.FaultFunc {
	ops := 0
	return func(string, disk.PageID) error {
		if ops++; ops == n {
			*fired = true
			return disk.ErrPermanent
		}
		return nil
	}
}

// TestTemporariesReturnTheirPages: every temporary a breadth-first
// retrieve forms — each level's, the sorted and distinct copies, the
// sort's runs — is dropped by the time the retrieve returns, so 50
// retrieves leave the disk with as many live pages as they found. The
// full-range query sorts 1,500 OIDs in two runs. The same holds when a
// fault fails the retrieve part-way, at every point of a sweep. A
// retrieve reports a refused page free (Retrieve returns the drops'
// error when it has none of its own), so the unfaulted retrieves' nil
// errors say every drop freed exactly its own pages, with page lists
// lent from one temporary to the next; a faulted one fails with the
// injected fault and nothing else.
func TestTemporariesReturnTheirPages(t *testing.T) {
	full := Query{Lo: 0, Hi: 299, AttrIdx: workload.FieldRet1}
	cases := []struct {
		name  string
		db    func(t *testing.T) *workload.DB
		strat func(t *testing.T, db *workload.DB) Strategy
	}{
		{"BFS", func(t *testing.T) *workload.DB { return buildDB(t, smallCfg()) },
			func(t *testing.T, db *workload.DB) Strategy { return mustNew(t, BFS, db) }},
		{"BFSNODUP", func(t *testing.T) *workload.DB { return buildDB(t, smallCfg()) },
			func(t *testing.T, db *workload.DB) Strategy { return mustNew(t, BFSNODUP, db) }},
		{"SMART", func(t *testing.T) *workload.DB { return buildDB(t, smallCfg()) },
			func(t *testing.T, db *workload.DB) Strategy {
				s, err := newSmart(db, 20) // NumTop 300 takes the breadth-first pass
				if err != nil {
					t.Fatal(err)
				}
				return s
			}},
		{"BFS two levels", func(t *testing.T) *workload.DB {
			return buildTwoLevel(t, workload.TwoLevelConfig{
				Config: workload.Config{NumParents: 300, SizeUnit: 3, UseFactor: 2, Seed: 17},
			}).DB
		}, func(t *testing.T, db *workload.DB) Strategy { return mustNew(t, BFS, db) }},
		{"BFSNODUP two levels", func(t *testing.T) *workload.DB {
			return buildTwoLevel(t, workload.TwoLevelConfig{
				Config: workload.Config{NumParents: 300, SizeUnit: 3, UseFactor: 2, Seed: 17},
			}).DB
		}, func(t *testing.T, db *workload.DB) Strategy { return mustNew(t, BFSNODUP, db) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := c.db(t)
			s := c.strat(t, db)
			live := livePages(db.Disk)
			for i := 0; i < 50; i++ {
				q := full
				if i%2 == 1 {
					q.Lo, q.Hi = int64(i), int64(i+40)
				}
				if _, err := s.Retrieve(db, q); err != nil {
					t.Fatal(err)
				}
				if got := livePages(db.Disk); got != live {
					t.Fatalf("retrieve %d: %d live pages, %d before", i, got, live)
				}
			}
			if db.Disk.Stats().Frees == 0 {
				t.Fatal("no temporary was ever freed")
			}
			// Fail each disk operation of the retrieve in turn, until the
			// retrieve runs out of operations before the fault.
			failed := 0
			for n := 1; ; n++ {
				fired := false
				db.Disk.SetFault(failNth(n, &fired))
				_, err := s.Retrieve(db, full)
				db.Disk.SetFault(nil)
				if err != nil {
					failed++
				}
				if err != nil && (!fired || !errors.Is(err, disk.ErrPermanent)) {
					t.Fatalf("fault at op %d (fired %v): retrieve failed with %v", n, fired, err)
				}
				if got := livePages(db.Disk); got != live {
					t.Fatalf("fault at op %d (err %v): %d live pages, %d before", n, err, got, live)
				}
				if !fired {
					break
				}
			}
			if failed < 10 {
				t.Fatalf("only %d faulted retrieves failed", failed)
			}
		})
	}
	t.Run("SortTemp", func(t *testing.T) {
		db := buildDB(t, smallCfg())
		live := livePages(db.Disk)
		for i := 0; i < 50; i++ {
			in, err := query.NewInt64Temp(db.Pool)
			if err != nil {
				t.Fatal(err)
			}
			for v := int64(0); v < 1000; v++ {
				if err := in.Append((v * 7919) % 1000); err != nil {
					t.Fatal(err)
				}
			}
			inPages := livePages(db.Disk) - live
			sorted, err := query.SortTemp(db.Pool, in, 300) // four runs
			if err != nil {
				t.Fatal(err)
			}
			if sorted.Count() != 1000 {
				t.Fatalf("sorted %d values, want 1000", sorted.Count())
			}
			// The output packs the same values as the input: only the two
			// of them are left.
			if got := livePages(db.Disk) - live; got != 2*inPages {
				t.Fatalf("sort %d: %d live pages, want input and output's %d", i, got, 2*inPages)
			}
			sorted.Drop()
			in.Drop()
			if got := livePages(db.Disk); got != live {
				t.Fatalf("sort %d: %d live pages, %d before", i, got, live)
			}
		}
	})
}

// TestRetrieveReportsDropError: a temporary whose page is freed behind
// its back — what a page list shared by two live temporaries would do —
// makes the drop's disk.Free fail, and the retrieve, which had no error
// of its own, reports it instead of dropping it. The page goes at the
// first disk read after the retrieve's first temporary page is
// allocated, while that temporary is alive.
func TestRetrieveReportsDropError(t *testing.T) {
	for _, k := range []Kind{BFS, BFSNODUP, SMART} {
		t.Run(k.String(), func(t *testing.T) {
			db := buildDB(t, smallCfg())
			s, err := newSmart(db, 20)
			if k != SMART {
				s, err = New(k, db)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Pool.Invalidate(); err != nil { // cold: the join reads leaves
				t.Fatal(err)
			}
			var temp disk.PageID
			stolen := false
			db.Disk.SetFault(func(op string, id disk.PageID) error {
				switch {
				case op == "alloc" && temp == 0:
					temp = id
				case op == "read" && temp != 0 && !stolen:
					stolen = true
					if err := db.Disk.Free(temp); err != nil {
						t.Errorf("freeing page %d: %v", temp, err)
					}
				}
				return nil
			})
			_, err = s.Retrieve(db, Query{Lo: 0, Hi: 299, AttrIdx: workload.FieldRet1})
			db.Disk.SetFault(nil)
			if !stolen {
				t.Fatal("the retrieve read no page after forming its first temporary")
			}
			if !errors.Is(err, disk.ErrPageNotFound) {
				t.Fatalf("retrieve returned %v, want the drop's refused free of page %d", err, temp)
			}
		})
	}
}

// TestDistinctTempKeepsOneOfEach: BFSNODUP's duplicate removal copies
// one value of each run of equal values of a sorted temporary, in
// order, and nothing of an empty one.
func TestDistinctTempKeepsOneOfEach(t *testing.T) {
	db := buildDB(t, smallCfg())
	sc := new(scratch)
	for _, c := range []struct{ in, want []int64 }{
		{[]int64{1, 1, 2, 3, 3, 3, 7}, []int64{1, 2, 3, 7}},
		{[]int64{-5, -5}, []int64{-5}},
		{nil, []int64{}},
	} {
		sorted, err := sc.temps.NewTemp(db.Pool)
		if err != nil {
			t.Fatal(err)
		}
		w := sorted.Appender()
		err = w.AppendAll(c.in)
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		distinct, err := sc.distinctTemp(db.Pool, sorted)
		if err != nil {
			t.Fatal(err)
		}
		got, err := distinct.ReadAll([]int64{})
		if err != nil || !slices.Equal(got, c.want) || distinct.Count() != len(c.want) {
			t.Fatalf("distinct of %v: %v (count %d), %v; want %v", c.in, got, distinct.Count(), err, c.want)
		}
		if err := errors.Join(sorted.Drop(), distinct.Drop()); err != nil {
			t.Fatal(err)
		}
	}
	testutil.AssertNoLeaks(t, db.Pool)
}
