package pql

import (
	"fmt"
	"testing"

	"corep/internal/buffer"
	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/testutil"
	"corep/internal/tuple"
)

// TestScanRowsSurviveFrameReuse: rows a scan returns own their strings
// and bytes. The relation spans many leaves of a 4-frame pool, so every
// leaf the cursor held has been recycled by the time the query returns;
// junking all frames afterwards must not change a single row.
func TestScanRowsSurviveFrameReuse(t *testing.T) {
	pool := buffer.New(disk.NewSim(), 4)
	cat := catalog.New(pool)
	schema := tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "name", Kind: tuple.KString, Width: 24},
		tuple.Field{Name: "blob", Kind: tuple.KBytes, Width: 40},
	)
	rel, err := cat.CreateBTree("item", schema)
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	for i := int64(1); i <= n; i++ {
		rec, err := tuple.Encode(nil, schema, tuple.Tuple{
			tuple.IntVal(i), tuple.StrVal(fmt.Sprintf("item-%04d", i)), tuple.BytesVal([]byte(fmt.Sprintf("blob-of-%04d", i))),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Tree.Insert(i, rec); err != nil {
			t.Fatal(err)
		}
	}
	if rel.Tree.LeafPages() < 8 {
		t.Fatalf("only %d leaves", rel.Tree.LeafPages())
	}
	check := func(res *Result, lo, hi int64) {
		t.Helper()
		if int64(len(res.Tuples)) != hi-lo+1 {
			t.Fatalf("%d rows, want %d", len(res.Tuples), hi-lo+1)
		}
		for j, row := range res.Tuples {
			i := lo + int64(j)
			if row[0].Int != i || row[1].Str != fmt.Sprintf("item-%04d", i) || string(row[2].Raw) != fmt.Sprintf("blob-of-%04d", i) {
				t.Fatalf("row %d = %v", i, row)
			}
		}
	}
	full, err := Run(cat, `retrieve (item.all)`)
	if err != nil {
		t.Fatal(err)
	}
	ranged, err := Run(cat, `retrieve (item.all) where item.OID >= 100 and item.OID <= 350`)
	if err != nil {
		t.Fatal(err)
	}
	testutil.AssertNoLeaks(t, pool)
	check(full, 1, n)
	check(ranged, 100, 350)
	testutil.ScribbleFrames(t, pool)
	check(full, 1, n)
	check(ranged, 100, 350)
}
