package strategy

import (
	"slices"
	"sync"
	"testing"

	"corep/internal/disk"
	"corep/internal/workload"
)

// TestResultsOutliveTheNextRetrieve: a retrieve's scratch — the parent
// list, the OID arena, the temporaries' handles, readers and page lists,
// the inner cursor, DFSCLUST's group state — is lent and reused by the
// retrieves after it, so a result must not alias any of it. Result i is kept while retrieve i+1 runs over another range,
// once whole and once failing halfway through on a cold pool; result i
// must then be unchanged and still hold a fresh DFS answer's values (its
// set, for BFSNODUP).
// SMART's threshold sends the narrow range through DFSCACHE and the
// others through its breadth-first pass; DFSCLUST reads the clustered
// copy every test database carries.
func TestResultsOutliveTheNextRetrieve(t *testing.T) {
	ranges := []Query{
		{Lo: 0, Hi: 59}, {Lo: 200, Hi: 209}, {Lo: 60, Hi: 139}, {Lo: 140, Hi: 299}, {Lo: 30, Hi: 90}, {Lo: 0, Hi: 299},
	}
	oneLevel := func(t *testing.T) *workload.DB { return buildDB(t, smallCfg()) }
	twoLevel := func(t *testing.T) *workload.DB {
		return buildTwoLevel(t, workload.TwoLevelConfig{
			Config: workload.Config{NumParents: 300, SizeUnit: 3, UseFactor: 2, Seed: 17},
		}).DB
	}
	cases := []struct {
		name string
		db   func(*testing.T) *workload.DB
		kind Kind
	}{
		{"DFS", oneLevel, DFS}, {"BFS", oneLevel, BFS}, {"BFSNODUP", oneLevel, BFSNODUP},
		{"DFSCACHE", oneLevel, DFSCACHE}, {"SMART", oneLevel, SMART}, {"DFSCLUST", oneLevel, DFSCLUST},
		{"DFS two levels", twoLevel, DFS}, {"BFS two levels", twoLevel, BFS}, {"BFSNODUP two levels", twoLevel, BFSNODUP},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := c.db(t)
			st := mustNew(t, c.kind, db)
			if c.kind == SMART {
				var err error
				if st, err = newSmart(db, 20); err != nil {
					t.Fatal(err)
				}
			}
			retrieve := func(q Query) *Result {
				t.Helper()
				q.AttrIdx = workload.FieldRet1
				res, err := st.Retrieve(db, q)
				if err != nil {
					t.Fatalf("%+v: %v", q, err)
				}
				return res
			}
			for i := 0; i+1 < len(ranges); i++ {
				res := retrieve(ranges[i])
				kept := slices.Clone(res.Values)
				retrieve(ranges[i+1])
				// Count the disk operations of a cold retrieve, then fail
				// the one halfway through.
				ops := 0
				if err := db.Pool.Invalidate(); err != nil {
					t.Fatal(err)
				}
				db.Disk.SetFault(func(string, disk.PageID) error { ops++; return nil })
				retrieve(ranges[i+1])
				if err := db.Pool.Invalidate(); err != nil {
					t.Fatal(err)
				}
				fired := false
				db.Disk.SetFault(failNth(ops/2, &fired))
				// A faulted cache page only turns a hit into a miss: the
				// cached strategies may still answer.
				_, err := st.Retrieve(db, Query{Lo: ranges[i+1].Lo, Hi: ranges[i+1].Hi, AttrIdx: workload.FieldRet1})
				db.Disk.SetFault(nil)
				if !fired || (err == nil && c.kind != DFSCACHE && c.kind != SMART) {
					t.Fatalf("retrieve %d: the fault at op %d of %d failed nothing (fired %v)", i, ops/2, ops, fired)
				}
				if !equalSlices(res.Values, kept) {
					t.Fatalf("result of %+v changed under the retrieves after it", ranges[i])
				}
				q := ranges[i]
				q.AttrIdx = workload.FieldRet1
				var ref *Result
				ref, err = mustNew(t, DFS, db).Retrieve(db, q)
				if err != nil {
					t.Fatal(err)
				}
				got, want := sortedCopy(res.Values), sortedCopy(ref.Values)
				if c.kind == BFSNODUP {
					want = dedup(want)
				}
				if !equalSlices(got, want) {
					t.Fatalf("result of %+v: %d values, a fresh DFS answer has %d", ranges[i], len(got), len(want))
				}
			}
		})
	}
}

// TestConcurrentRetrievesMatchSerial: K clients share one database and
// one strategy value, each over its own range, as serve_2c's two DFS
// clients do; every answer must equal the serial run's, so no two
// retrieves ever hold the same lent scratch. BFS, BFSNODUP and SMART's
// breadth-first pass ride along for the query package's pool, the
// temporaries' handles, readers and page lists and the inner cursor
// (BFSNODUP for its distinct copy too), DFSCLUST for its lent group
// state, and DFSCACHE for the scratch's value buffer and the cache's
// recycled lock lists and I-lock sets: its cache holds fewer units than
// the clients' ranges reach, so evictions hand sets from one client's
// units to another's while they run. Run under -race.
func TestConcurrentRetrievesMatchSerial(t *testing.T) {
	const cacheUnits = 24
	db := buildDB(t, workload.Config{NumParents: 300, SizeUnit: 5, UseFactor: 3, Seed: 11, PoolPages: 400, CacheUnits: cacheUnits})
	const clients = 4
	query := func(c int) Query { return Query{Lo: int64(40 * c), Hi: int64(40*c + 99), AttrIdx: workload.FieldRet1} }
	smart, err := newSmart(db, 20) // every client's 100 parents take the breadth-first pass
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Strategy{mustNew(t, DFS, db), mustNew(t, BFS, db), mustNew(t, BFSNODUP, db), smart, mustNew(t, DFSCLUST, db), mustNew(t, DFSCACHE, db)} {
		k := st.Kind()
		before := db.Cache.Stats()
		want := make([][]int64, clients)
		for c := range want {
			res, err := st.Retrieve(db, query(c))
			if err != nil {
				t.Fatal(err)
			}
			want[c] = res.Values
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					res, err := st.Retrieve(db, query(c))
					if err != nil {
						t.Error(err)
						return
					}
					if !equalSlices(res.Values, want[c]) {
						t.Errorf("%v client %d round %d: values differ from the serial run", k, c, round)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		if d := db.Cache.Stats().Sub(before); k == DFSCACHE && d.Evictions < clients*cacheUnits {
			t.Errorf("DFSCACHE evicted %d units: the clients should keep recycling the cache's sets", d.Evictions)
		}
	}
	if err := db.Cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
