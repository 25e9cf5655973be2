package strategy

import (
	"math"
	"sync"
	"testing"
	"time"

	"corep/internal/object"
	"corep/internal/storage"
	"corep/internal/tuple"
	"corep/internal/workload"
)

// sameAsDFS runs q through DFSCLUST and DFS and compares the values in
// order: both answer parent by parent in key order, member by member in
// unit order.
func sameAsDFS(t *testing.T, db *workload.DB, q Query) {
	t.Helper()
	want, err := mustNew(t, DFS, db).Retrieve(db, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mustNew(t, DFSCLUST, db).Retrieve(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Values) == 0 {
		t.Fatalf("%+v selects nothing: the comparison would be empty", q)
	}
	if !equalSlices(got.Values, want.Values) {
		t.Fatalf("%+v: DFSCLUST returns %d values that differ, in order, from DFS's %d", q, len(got.Values), len(want.Values))
	}
}

// clusterRows lists the ClusterRel rows of cluster# p in physical order.
func clusterRows(t *testing.T, db *workload.DB, p int64) (rids []storage.RID, recs [][]byte) {
	t.Helper()
	err := db.ClusterRel.Tree.ScanLeavesRID(func(rid storage.RID, key int64, payload []byte) (bool, error) {
		if key == p {
			rids = append(rids, rid)
			recs = append(recs, append([]byte(nil), payload...))
		}
		return key <= p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rids, recs
}

// reverseGroup rewrites the subobject rows of cluster# p in the opposite
// physical order, the parent row staying where it is, and returns how
// many rows moved. The ISAM index is left pointing at the old places, so
// use it only where no other parent references these subobjects.
func reverseGroup(t *testing.T, db *workload.DB, p int64) int {
	t.Helper()
	rids, recs := clusterRows(t, db, p)
	oidIdx := db.ClusterSchema.MustIndex("OID")
	var kids []int
	for i, rec := range recs {
		oid, err := tuple.Int(db.ClusterSchema, rec, oidIdx)
		if err != nil {
			t.Fatal(err)
		}
		if object.OID(oid).Rel() != db.Parent.ID {
			kids = append(kids, i)
		}
	}
	for i, j := 0, len(kids)-1; i < j; i, j = i+1, j-1 {
		a, b := kids[i], kids[j]
		if err := db.ClusterRel.Tree.UpdateAt(rids[a], recs[b]); err != nil {
			t.Fatal(err)
		}
		if err := db.ClusterRel.Tree.UpdateAt(rids[b], recs[a]); err != nil {
			t.Fatal(err)
		}
	}
	return len(kids)
}

// nameTwice makes parent p's unit name its member j in position i as
// well, in ParentRel and in ClusterRel's copy of the parent row.
func nameTwice(t *testing.T, db *workload.DB, p int64, i, j int) {
	t.Helper()
	patch := func(s *tuple.Schema, rec []byte) []byte {
		tup, err := tuple.Decode(s, rec)
		if err != nil {
			t.Fatal(err)
		}
		kids := &tup[s.MustIndex("children")]
		oids, err := object.DecodeOIDs(kids.Raw)
		if err != nil {
			t.Fatal(err)
		}
		oids[i] = oids[j]
		kids.Raw = object.EncodeOIDs(oids)
		out, err := tuple.Encode(nil, s, tup)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	prec, err := db.Parent.Tree.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Parent.Tree.Update(p, patch(db.ParentSchema, prec)); err != nil {
		t.Fatal(err)
	}
	rid, err := db.ClusterRel.Index.Probe(int64(object.NewOID(db.Parent.ID, p)))
	if err != nil {
		t.Fatal(err)
	}
	_, crec, err := db.ClusterRel.Tree.GetAt(rid)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ClusterRel.Tree.UpdateAt(rid, patch(db.ClusterSchema, crec)); err != nil {
		t.Fatal(err)
	}
}

// TestDFSCLUSTGroupScanMatchesDFS holds the slice-backed group scan to
// DFS, value by value in order, on the shapes a group lookup could get
// wrong.
func TestDFSCLUSTGroupScanMatchesDFS(t *testing.T) {
	whole := func(db *workload.DB) Query {
		return Query{Lo: 0, Hi: int64(db.Cfg.NumParents) - 1, AttrIdx: workload.FieldRet2}
	}

	t.Run("groups past the linear probe, in and out of OID order", func(t *testing.T) {
		// UseFactor 1: every member is local, so a group is the 64 rows of
		// its parent's unit — searched, not probed.
		db := buildDB(t, workload.Config{NumParents: 40, SizeUnit: 64, UseFactor: 1, Seed: 5})
		sameAsDFS(t, db, whole(db))
		for _, p := range []int64{0, 7, 39} {
			if n := reverseGroup(t, db, p); n <= linearProbeMax {
				t.Fatalf("group %d has %d rows: not past the linear probe", p, n)
			}
		}
		sameAsDFS(t, db, whole(db))
	})

	t.Run("small and large groups mixed", func(t *testing.T) {
		// UseFactor 3: a unit's rows go to one of its three parents, so
		// groups hold 0 to 192 rows and most members are non-local.
		db := buildDB(t, workload.Config{NumParents: 60, SizeUnit: 64, UseFactor: 3, Seed: 6})
		small, large := 0, 0
		for p := int64(0); p < 60; p++ {
			if rids, _ := clusterRows(t, db, p); len(rids)-1 > linearProbeMax {
				large++
			} else {
				small++
			}
		}
		if small == 0 || large == 0 {
			t.Fatalf("%d small and %d large groups: both lookups must run", small, large)
		}
		sameAsDFS(t, db, whole(db))
	})

	t.Run("non-local members and fragmented units", func(t *testing.T) {
		db := buildDB(t, workload.Config{NumParents: 200, SizeUnit: 5, UseFactor: 3, OverlapFactor: 2, Seed: 23})
		sameAsDFS(t, db, whole(db))
		sameAsDFS(t, db, Query{Lo: 20, Hi: 79, AttrIdx: workload.FieldRet1})
	})

	t.Run("a unit naming one subobject twice", func(t *testing.T) {
		db := buildDB(t, workload.Config{NumParents: 100, SizeUnit: 5, UseFactor: 2, Seed: 9})
		for p := int64(10); p < 30; p++ {
			nameTwice(t, db, p, int(p%4)+1, 0) // local to some parents, non-local to the rest
		}
		sameAsDFS(t, db, Query{Lo: 0, Hi: 49, AttrIdx: workload.FieldRet3})
	})

	t.Run("two child relations", func(t *testing.T) {
		db := buildDB(t, workload.Config{NumParents: 200, SizeUnit: 5, UseFactor: 2, NumChildRel: 2, Seed: 31})
		sameAsDFS(t, db, whole(db))
	})

	t.Run("part of the range migrated", func(t *testing.T) {
		db := buildDB(t, smallCfg())
		if err := db.EnableReclustering(0, 0); err != nil {
			t.Fatal(err)
		}
		for _, p := range []int64{40, 41, 42, 50, 77, 78, 120} {
			db.Reclust.Heat.Touch(p, float64(200-p))
		}
		if moved, err := db.ReclustStep(5); err != nil || moved == 0 {
			t.Fatalf("ReclustStep moved %d subobjects: %v", moved, err)
		}
		for _, q := range []Query{
			{Lo: 30, Hi: 130, AttrIdx: workload.FieldRet1}, // runs, placed parents, runs
			{Lo: 41, Hi: 41, AttrIdx: workload.FieldRet2},  // one placed parent
			{Lo: 42, Hi: 50, AttrIdx: workload.FieldRet3},  // placed at both ends
		} {
			sameAsDFS(t, db, q)
		}
	})
}

// TestReclustHeatNeedsNoTracer: the retrieves themselves feed the heat
// tracker — no AttachObs, no sink — with the parents the relation
// holds, not the query's bounds, and ReclustStep migrates what they
// made hot.
func TestReclustHeatNeedsNoTracer(t *testing.T) {
	db := buildDB(t, smallCfg())
	if err := db.EnableReclustering(0, 0); err != nil {
		t.Fatal(err)
	}
	st := mustNew(t, DFSCLUST, db)
	for _, q := range []Query{
		{Lo: 40, Hi: 44, AttrIdx: workload.FieldRet1},
		{Lo: 42, Hi: 42, AttrIdx: workload.FieldRet1},
		{Lo: int64(db.Cfg.NumParents) - 2, Hi: math.MaxInt64, AttrIdx: workload.FieldRet1},
	} {
		if _, err := st.Retrieve(db, q); err != nil {
			t.Fatal(err)
		}
	}
	stats := *db.ReclustStats()
	if stats.Tracked != 7 || stats.Touches != 8 {
		t.Fatalf("three retrieves over 5+1+2 stored parents: %+v", stats)
	}
	if hot := db.Reclust.Heat.TopN(1); hot[0].Key != 42 {
		t.Fatalf("hottest parent %d, want 42 (touched twice)", hot[0].Key)
	}
	moved, err := db.ReclustStep(1)
	if err != nil || moved != 1+len(db.UnitOf(42)) {
		t.Fatalf("ReclustStep moved %d rows, %v; want parent 42's whole unit", moved, err)
	}
	if _, ok := db.Placed(object.NewOID(db.Parent.ID, 42), 0); !ok {
		t.Fatal("the hottest parent's row was not placed")
	}
	sameAsDFS(t, db, Query{Lo: 40, Hi: 44, AttrIdx: workload.FieldRet1})
}

// TestDFSCLUSTOpenRangeUnderReclustering: with reclustering on, the walk
// over the query's keys must end where ClusterRel does. It used to count
// to the query's own upper bound — ten seconds for 1<<31, never for
// math.MaxInt64, where k++ wraps — and a negative lower bound panicked
// in NewOID.
func TestDFSCLUSTOpenRangeUnderReclustering(t *testing.T) {
	db := buildDB(t, smallCfg())
	if err := db.EnableReclustering(0, 0); err != nil {
		t.Fatal(err)
	}
	db.Reclust.Heat.Touch(260, 3)
	if _, err := db.ReclustStep(1); err != nil {
		t.Fatal(err)
	}
	st := mustNew(t, DFSCLUST, db)
	for _, q := range []Query{
		{Lo: 250, Hi: 1 << 31, AttrIdx: workload.FieldRet1},
		{Lo: 250, Hi: math.MaxInt64, AttrIdx: workload.FieldRet1},
		{Lo: math.MinInt64, Hi: 49, AttrIdx: workload.FieldRet1},
	} {
		done := make(chan *Result, 1)
		go func() {
			res, err := st.Retrieve(db, q)
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		select {
		case res := <-done:
			if res != nil && len(res.Values) != 50*db.Cfg.SizeUnit {
				t.Fatalf("%+v: %d values, want the 50 stored parents' %d", q, len(res.Values), 50*db.Cfg.SizeUnit)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%+v did not return in 5 s", q)
		}
		sameAsDFS(t, db, q)
	}
}

func TestNumTopSaturates(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		want   int
	}{
		{0, 0, 1},
		{10, 59, 50},
		{5, 4, 0},
		{5, -100, 0},
		{math.MaxInt64, math.MinInt64, 0},
		{0, math.MaxInt64, math.MaxInt},
		{-1, math.MaxInt64, math.MaxInt},
		{math.MinInt64, math.MaxInt64, math.MaxInt},
		{math.MinInt64, -1, math.MaxInt},
	} {
		if got := (Query{Lo: c.lo, Hi: c.hi}).NumTop(); got != c.want {
			t.Errorf("NumTop of [%d, %d] = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

// TestDFSCLUSTConcurrentRetrieves: the group scratch belongs to the
// call, not to the strategy value the clients share. Run under -race.
func TestDFSCLUSTConcurrentRetrieves(t *testing.T) {
	db := buildDB(t, workload.Config{NumParents: 300, SizeUnit: 5, UseFactor: 3, OverlapFactor: 2, Seed: 11})
	st := mustNew(t, DFSCLUST, db)
	const clients = 8
	want := make([][]int64, clients)
	query := func(c int) Query { return Query{Lo: int64(20 * c), Hi: int64(20*c + 120), AttrIdx: workload.FieldRet1} }
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
					t.Errorf("client %d round %d: values differ from the serial run", c, round)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
