package pql

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"corep/internal/buffer"
	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/object"
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

// viewDB is the fixture of the view-lifetime tests: item and part
// relations spanning many leaves of a small pool, and box rows whose
// contents attribute reaches them by an OID list scattered over both
// relations, by inline values and by a stored query; a crate holds boxes
// (a two-segment path). Box 5 lists a dangling OID after two good ones.
func viewDB(t *testing.T, frames int) (*catalog.Catalog, *buffer.Pool) {
	t.Helper()
	pool := buffer.New(disk.NewSim(), frames)
	cat := catalog.New(pool)
	insert := func(rel *catalog.Relation, row tuple.Tuple) {
		t.Helper()
		rec, err := tuple.Encode(nil, rel.Schema, row)
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Tree.Insert(row[0].Int, rec); err != nil {
			t.Fatal(err)
		}
	}
	thing := func() *tuple.Schema {
		return tuple.NewSchema(
			tuple.Field{Name: "OID", Kind: tuple.KInt},
			tuple.Field{Name: "name", Kind: tuple.KString, Width: 40},
			tuple.Field{Name: "size", Kind: tuple.KInt},
		)
	}
	thingRow := func(kind string, i int64) tuple.Tuple {
		return tuple.Tuple{tuple.IntVal(i), tuple.StrVal(fmt.Sprintf("%s-%04d-padding-to-spread-pages", kind, i)), tuple.IntVal(i % 9)}
	}
	item, err := cat.CreateBTree("item", thing())
	if err != nil {
		t.Fatal(err)
	}
	part, err := cat.CreateBTree("part", thing())
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := int64(1); i <= n; i++ {
		insert(item, thingRow("item", i))
		insert(part, thingRow("part", i))
	}
	if item.Tree.LeafPages() < 12 {
		t.Fatalf("item has only %d leaves", item.Tree.LeafPages())
	}
	holder := func() *tuple.Schema {
		return tuple.NewSchema(
			tuple.Field{Name: "OID", Kind: tuple.KInt},
			tuple.Field{Name: "label", Kind: tuple.KString, Width: 12},
			tuple.Field{Name: "contents", Kind: tuple.KBytes, Width: 512},
		)
	}
	box, err := cat.CreateBTree("box", holder())
	if err != nil {
		t.Fatal(err)
	}
	oidList := func(oids ...object.OID) []byte {
		return append([]byte{object.TagOIDs}, object.EncodeOIDs(oids)...)
	}
	nested := func(rel *catalog.Relation, rows ...tuple.Tuple) []byte {
		body, err := object.EncodeNested(rel.Schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		kids := append([]byte{object.TagValue, 0, 0}, body...)
		binary.LittleEndian.PutUint16(kids[1:3], rel.ID)
		return kids
	}
	boxes := []tuple.Tuple{
		{tuple.IntVal(1), tuple.StrVal("scattered"), tuple.BytesVal(oidList(
			object.NewOID(part.ID, 390), object.NewOID(item.ID, 7), object.NewOID(part.ID, 3), object.NewOID(item.ID, 201), object.NewOID(item.ID, 399)))},
		{tuple.IntVal(2), tuple.StrVal("inline"), tuple.BytesVal(nested(item, thingRow("item", 11), thingRow("item", 12)))},
		{tuple.IntVal(3), tuple.StrVal("stored"), tuple.BytesVal(append([]byte{object.TagProc},
			`retrieve (part.name, part.size) where part.OID >= 120 and part.OID <= 180 and part.size = 4`...))},
		{tuple.IntVal(4), tuple.StrVal("items"), tuple.BytesVal(oidList(
			object.NewOID(item.ID, 300), object.NewOID(item.ID, 100), object.NewOID(item.ID, 200)))},
	}
	for _, b := range boxes {
		insert(box, b)
	}
	insert(box, tuple.Tuple{tuple.IntVal(5), tuple.StrVal("dangling"), tuple.BytesVal(oidList(
		object.NewOID(item.ID, 5), object.NewOID(part.ID, 395), object.NewOID(item.ID, n+1)))})
	crate, err := cat.CreateBTree("crate", holder())
	if err != nil {
		t.Fatal(err)
	}
	insert(crate, tuple.Tuple{tuple.IntVal(1), tuple.StrVal("by-oid"), tuple.BytesVal(oidList(
		object.NewOID(box.ID, 4), object.NewOID(box.ID, 1), object.NewOID(box.ID, 3)))})
	insert(crate, tuple.Tuple{tuple.IntVal(2), tuple.StrVal("inline"), tuple.BytesVal(nested(box, boxes[0], boxes[1]))})
	insert(crate, tuple.Tuple{tuple.IntVal(3), tuple.StrVal("stored"), tuple.BytesVal(append([]byte{object.TagProc},
		`retrieve (box.contents) where box.OID <= 3`...))})
	return cat, pool
}

// TestRowViewsSurviveFrameReuse: between the stages of a pipeline rows
// are views into pinned pages, and a 4-frame pool recycles every frame
// many times within one query. What a query returns must nevertheless
// own its bytes, be what the decode-everything reference returns, and
// leave no pin behind — for OID lists spanning two relations, inline
// members, stored-query members, a two-segment path and both join forms.
func TestRowViewsSurviveFrameReuse(t *testing.T) {
	cat, pool := viewDB(t, 4)
	for _, src := range []string{
		`retrieve (box.label, box.contents.name) where box.OID <= 4`,
		`retrieve (box.contents.size) where box.OID = 1 or box.OID = 3`,
		`retrieve (crate.contents.contents.name)`,
		`retrieve (crate.label, crate.contents.contents.size) where crate.OID != 2`,
		`retrieve (item.name, part.name) where part.OID = item.size and item.OID > 390`,
		`retrieve (item.name, part.name) where item.size = part.size and item.OID <= 2 and part.OID > 395`,
	} {
		q := mustParse(t, src)
		want, err := refExecute(cat, q, 0)
		if err != nil {
			t.Fatalf("%s: reference: %v", src, err)
		}
		got, err := Execute(cat, q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		testutil.AssertNoLeaks(t, pool)
		testutil.ScribbleFrames(t, pool)
		if len(got.Tuples) == 0 || !reflect.DeepEqual(got.Tuples, want.Tuples) {
			t.Fatalf("%s: after the frames were overwritten\n got %v\nwant %v", src, got.Tuples, want.Tuples)
		}
	}
}

// TestNoPinSurvivesAnAbandonedPipeline: a pipeline that stops early — a
// subobject that is not there, a path that does not fit what it reaches,
// a scan closed before its end — releases the leaf its scan stands on
// and the leaf of the probe that failed.
func TestNoPinSurvivesAnAbandonedPipeline(t *testing.T) {
	cat, pool := viewDB(t, 4)
	for _, src := range []string{
		`retrieve (box.contents.name)`,                              // box 5 dangles, three boxes in
		`retrieve (box.contents.name) where box.OID = 5`,            // … after two good members
		`retrieve (box.contents.weight) where box.OID >= 2`,         // no such attribute, inline member
		`retrieve (box.contents.weight) where box.OID = 3`,          // … stored-query member
		`retrieve (crate.contents.contents.weight)`,                 // … two segments down
		`retrieve (crate.contents.label.name)`,                      // label is no children attribute
		`retrieve (item.name) where item.OID > 5 and item.name = 3`, // predicate fails mid-scan
	} {
		_, err := Execute(cat, mustParse(t, src))
		if !errors.Is(err, ErrExec) {
			t.Fatalf("%s: err = %v, want an ErrExec", src, err)
		}
		testutil.AssertNoLeaks(t, pool)
	}
	item, err := cat.Get("item")
	if err != nil {
		t.Fatal(err)
	}
	for _, where := range []Expr{nil, mustParse(t, `retrieve (item.OID) where item.OID >= 150`).Where} {
		var scan relScan
		if err := scan.open(item, where); err != nil {
			t.Fatal(err)
		}
		rec, ok, err := scan.Next()
		if err != nil || !ok {
			t.Fatalf("first record: %v %v", ok, err)
		}
		if pool.PinnedCount() != 1 {
			t.Fatalf("%d pages pinned under an open scan, want its leaf alone", pool.PinnedCount())
		}
		name, err := tuple.DecodeField(item.Schema, rec, 1)
		if err != nil || !strings.HasPrefix(name.Str, "item-") {
			t.Fatalf("first record reads %v, %v", name, err)
		}
		scan.Close()
		testutil.AssertNoLeaks(t, pool)
		scan.Close() // idempotent
	}
}

// TestLazyDecodeStillChecksRecords: the pipeline materializes only the
// fields a query names, but a record damaged in a field *behind* the
// projected one is still refused with tuple.ErrDecode, as when every
// record was decoded whole — wherever it enters: under a scan, in an OID
// list's sweep, as an inline member, as a join partner, inside a stored
// query.
func TestLazyDecodeStillChecksRecords(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"truncated": func(rec []byte) []byte { return rec[:len(rec)-2] },
		"trailing":  func(rec []byte) []byte { return append(rec, 0xEE) },
	} {
		pool := buffer.New(disk.NewSim(), 16)
		cat := catalog.New(pool)
		schema := tuple.NewSchema(
			tuple.Field{Name: "OID", Kind: tuple.KInt},
			tuple.Field{Name: "name", Kind: tuple.KString, Width: 8},
			tuple.Field{Name: "note", Kind: tuple.KString, Width: 8},
		)
		good, err := cat.CreateBTree("good", schema)
		if err != nil {
			t.Fatal(err)
		}
		bad, err := cat.CreateBTree("bad", schema)
		if err != nil {
			t.Fatal(err)
		}
		var badRec []byte
		for i := int64(1); i <= 3; i++ {
			rec, err := tuple.Encode(nil, schema, tuple.Tuple{tuple.IntVal(i), tuple.StrVal(fmt.Sprintf("n%d", i)), tuple.StrVal("a note")})
			if err != nil {
				t.Fatal(err)
			}
			if err := good.Tree.Insert(i, rec); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				rec = damage(rec)
				badRec = rec
			}
			if err := bad.Tree.Insert(i, rec); err != nil {
				t.Fatal(err)
			}
		}
		// The damage is behind name: projecting it alone does not trip.
		if v, err := tuple.DecodeField(schema, badRec, 1); err != nil || v.Str != "n2" {
			t.Fatalf("%s: name of the damaged record reads %v, %v", name, v, err)
		}
		owner, err := cat.CreateBTree("owner", tuple.NewSchema(
			tuple.Field{Name: "OID", Kind: tuple.KInt},
			tuple.Field{Name: "kids", Kind: tuple.KBytes, Width: 128},
		))
		if err != nil {
			t.Fatal(err)
		}
		inline := []byte{object.TagValue, 0, 0, 1, 0, 0, 0, byte(len(badRec)), 0, 0, 0}
		binary.LittleEndian.PutUint16(inline[1:3], bad.ID)
		for i, kids := range [][]byte{
			append([]byte{object.TagOIDs}, object.EncodeOIDs([]object.OID{object.NewOID(bad.ID, 1), object.NewOID(bad.ID, 2)})...),
			append(inline, badRec...),
			append([]byte{object.TagProc}, `retrieve (bad.name)`...),
		} {
			rec, err := tuple.Encode(nil, owner.Schema, tuple.Tuple{tuple.IntVal(int64(i + 1)), tuple.BytesVal(kids)})
			if err != nil {
				t.Fatal(err)
			}
			if err := owner.Tree.Insert(int64(i+1), rec); err != nil {
				t.Fatal(err)
			}
		}
		for _, src := range []string{
			`retrieve (bad.name)`,
			`retrieve (bad.name) where bad.OID >= 2`,
			`retrieve (owner.kids.name) where owner.OID = 1`,
			`retrieve (owner.kids.name) where owner.OID = 2`,
			`retrieve (owner.kids.name) where owner.OID = 3`,
			`retrieve (good.name, bad.name) where bad.OID = good.OID`,
			`retrieve (good.name) where good.name = bad.name`,
		} {
			_, err := Execute(cat, mustParse(t, src))
			if !errors.Is(err, tuple.ErrDecode) {
				t.Fatalf("%s record, %s: err = %v, want tuple.ErrDecode", name, src, err)
			}
			testutil.AssertNoLeaks(t, pool)
		}
		// Records before the damaged one, and queries that never reach it,
		// are unaffected.
		res, err := Run(cat, `retrieve (bad.name) where bad.OID = 1 or bad.OID = 3`)
		if err == nil {
			t.Fatalf("%s: full scan passed over the damaged record: %v", name, res.Tuples)
		}
		if res, err = Run(cat, `retrieve (bad.name) where bad.OID >= 3`); err != nil || len(res.Tuples) != 1 {
			t.Fatalf("%s: range scan past the damaged record: %v, %v", name, res, err)
		}
	}
}

// TestPathQueryAllocationCeiling: a path query allocates for what it
// returns and for binding, not per row it passes over. The ceiling is the
// measured count plus a margin far below one allocation per scanned row,
// so a per-row binding map (or a decoded tuple per record) trips it.
func TestPathQueryAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cat, _ := viewDB(t, 64)
	// 4 of 400 boxes-worth of rows qualify by the residual predicate, so
	// almost every scanned row is filtered out.
	q := mustParse(t, `retrieve (box.contents.name) where box.OID >= 1 and box.OID <= 4 and not box.label = "inline"`)
	res, err := Execute(cat, q)
	if err != nil || len(res.Tuples) == 0 {
		t.Fatalf("fixture query: %v, %v", res, err)
	}
	scanAll := mustParse(t, `retrieve (item.name) where item.size = 10`) // no row has size 10
	perScan := testing.AllocsPerRun(20, func() {
		if res, err := Execute(cat, scanAll); err != nil || len(res.Tuples) != 0 {
			t.Fatalf("scan: %v, %v", res, err)
		}
	})
	if perScan > 25 {
		t.Errorf("a 400-row scan returning nothing allocates %.0f times; rows must not allocate", perScan)
	}
	perPath := testing.AllocsPerRun(20, func() {
		if _, err := Execute(cat, q); err != nil {
			t.Fatal(err)
		}
	})
	// Returned: one string per value, the slab the rows are cut from and
	// the row index. The rest — 40 at the last count, and 2 to spare for
	// a pooled buffer a collection took — is the parse and binding of the
	// query and of box 3's stored query, the expander, the scans and each
	// box's OID list.
	if limit := float64(len(res.Tuples) + 2 + 42); perPath > limit {
		t.Errorf("path query returning %d rows allocates %.0f times, ceiling %.0f", len(res.Tuples), perPath, limit)
	}
	t.Logf("allocations: empty 400-row scan %.0f, path query with %d rows %.0f", perScan, len(res.Tuples), perPath)
}
