package strategy

import (
	"errors"
	"testing"

	"corep/internal/object"
	"corep/internal/query"
	"corep/internal/testutil"
	"corep/internal/workload"
)

// TestResultsSurviveFrameReuse retrieves through all six strategies and
// the value-based scan on a pool of a few frames — every leaf a cursor
// holds is recycled many times inside one query — and then junks every
// frame: the results must equal the ones a roomy pool produces and must
// not change, because no result may alias a page the cursor has let go.
func TestResultsSurviveFrameReuse(t *testing.T) {
	q := Query{Lo: 20, Hi: 140, AttrIdx: workload.FieldRet2}
	roomy := buildDB(t, smallCfg())
	tightCfg := smallCfg()
	tightCfg.PoolPages = 6
	tight := buildDB(t, tightCfg)
	for _, k := range AllKinds {
		ref, err := mustNew(t, k, roomy).Retrieve(roomy, q)
		if err != nil {
			t.Fatalf("%v (roomy): %v", k, err)
		}
		res, err := mustNew(t, k, tight).Retrieve(tight, q)
		if err != nil {
			t.Fatalf("%v (6 frames): %v", k, err)
		}
		testutil.AssertNoLeaks(t, tight.Pool)
		kept := append([]int64(nil), res.Values...)
		testutil.ScribbleFrames(t, tight.Pool)
		if !equalSlices(res.Values, kept) {
			t.Fatalf("%v: result changed when its frames were overwritten", k)
		}
		if !equalSlices(sortedCopy(res.Values), sortedCopy(ref.Values)) {
			t.Fatalf("%v: 6-frame pool returns %d values that differ from the roomy pool's %d", k, len(res.Values), len(ref.Values))
		}
	}

	vcfg := workload.Config{NumParents: 300, SizeUnit: 5, UseFactor: 3, Seed: 21}
	vroomy := buildValue(t, vcfg)
	vcfg.PoolPages = 4
	vtight := buildValue(t, vcfg)
	ref, err := ValueScan(vroomy, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ValueScan(vtight, q)
	if err != nil {
		t.Fatal(err)
	}
	testutil.AssertNoLeaks(t, vtight.Pool)
	testutil.ScribbleFrames(t, vtight.Pool)
	if !equalSlices(res.Values, ref.Values) {
		t.Fatal("ValueScan on 4 frames differs from the roomy pool, or changed under frame reuse")
	}
}

// TestMergeJoinErrorReleasesCursor: SMART's and BFS's merge join must
// release the leaf their cursor holds when the join fails midway, not
// only when it runs to the end.
func TestMergeJoinErrorReleasesCursor(t *testing.T) {
	db := buildDB(t, smallCfg())
	rel, err := db.ChildByRelID(db.Children[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	tmp, err := query.NewInt64Temp(db.Pool)
	if err != nil {
		t.Fatal(err)
	}
	// Keys of real subobjects, ascending, so the join matches and decodes.
	first, err := firstKeys(db, rel.ID, 40)
	if err != nil {
		t.Fatal(err)
	}
	w := tmp.Appender()
	for _, k := range first {
		if err := w.Append(k); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// An attribute index the schema does not have: the first match fails
	// inside the join callback while the cursor holds its leaf.
	res := &Result{}
	sc := new(scratch)
	err = sc.mergeJoinChild(db, rel, tmp, project(db, rel, Query{AttrIdx: 99}, res))
	if err == nil {
		t.Fatal("join with a bad attribute succeeded")
	}
	testutil.AssertNoLeaks(t, db.Pool)
	// And the good path still works afterwards.
	if err := sc.mergeJoinChild(db, rel, tmp, project(db, rel, Query{AttrIdx: workload.FieldRet1}, res)); err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != len(first) {
		t.Fatalf("joined %d values for %d keys", len(res.Values), len(first))
	}
	testutil.AssertNoLeaks(t, db.Pool)
}

// firstKeys returns the n smallest keys of child relation relID.
func firstKeys(db *workload.DB, relID uint16, n int) ([]int64, error) {
	rel, err := db.ChildByRelID(relID)
	if err != nil {
		return nil, err
	}
	var keys []int64
	err = rel.Tree.Range(0, 1<<62, func(k int64, _ []byte) (bool, error) {
		keys = append(keys, k)
		return len(keys) < n, nil
	})
	if len(keys) < n {
		return nil, errors.New("child relation too small")
	}
	return keys, err
}

// TestTempWriterRunsPerRelation: OIDs of interleaved relations land in
// their own temporaries in arrival order, and an open run never outlives
// close.
func TestTempWriterRunsPerRelation(t *testing.T) {
	db := buildDB(t, smallCfg())
	tw := new(scratch).tempWriter(db.Pool)
	in := []object.OID{
		object.NewOID(7, 1), object.NewOID(7, 2), object.NewOID(9, 10),
		object.NewOID(7, 3), object.NewOID(9, 11), object.NewOID(9, 12),
	}
	if err := tw.add(in); err != nil {
		t.Fatal(err)
	}
	if db.Pool.PinnedCount() != 1 {
		t.Fatalf("open run holds %d pages, want its one tail", db.Pool.PinnedCount())
	}
	tw.close()
	tw.close()
	testutil.AssertNoLeaks(t, db.Pool)
	if len(tw.relOrder) != 2 || tw.relOrder[0] != 7 || tw.relOrder[1] != 9 {
		t.Fatalf("relOrder = %v", tw.relOrder)
	}
	for rel, want := range map[uint16][]int64{7: {1, 2, 3}, 9: {10, 11, 12}} {
		var got []int64
		err := tw.temps[rel].Scan(func(v int64) (bool, error) { got = append(got, v); return true, nil })
		if err != nil || !equalSlices(got, want) {
			t.Fatalf("rel %d: %v (%v), want %v", rel, got, err, want)
		}
	}
}
