package pql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"corep/internal/buffer"
	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/tuple"
)

// queryIn is Store.Query in call state s, lent for more than one call: a
// statement with the shape of the last one parsed there keeps that one's
// parse and binding (run).
func queryIn(s *call, st Store, src string) (cols []string, rows []tuple.Tuple, err error) {
	q, err := parse(&s.parse, src)
	if err != nil {
		return nil, nil, err
	}
	b, rows, err := s.run(st, q)
	if err != nil {
		return nil, nil, err
	}
	return b.schema.Names(), rows, nil
}

// TestKeyRangeAtInt64Limits: a bounded scan holds the key conjuncts the
// bound predicate no longer checks, so the range must be exact at both
// ends of int64 — `< MinInt64` and `> MaxInt64` are empty, not wrapped
// to the whole range — and an unbounded scan must reach every key, also
// those beyond ±2^62. Each query returns what the reference returns,
// through Execute and through a lent call state.
func TestKeyRangeAtInt64Limits(t *testing.T) {
	cat := catalog.New(buffer.New(disk.NewSim(), 64))
	s := tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "name", Kind: tuple.KString, Width: 8},
	)
	edge, err := cat.CreateBTree("edge", s)
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 62, -1<<62 - 1, -5, 0, 5, 1 << 62, 1<<62 + 1, math.MaxInt64 - 1, math.MaxInt64}
	for i, k := range keys {
		rec, err := tuple.Encode(nil, s, tuple.Tuple{tuple.IntVal(k), tuple.StrVal(fmt.Sprintf("k%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := edge.Tree.Insert(k, rec); err != nil {
			t.Fatal(err)
		}
	}
	min, max := fmt.Sprint(int64(math.MinInt64)), fmt.Sprint(int64(math.MaxInt64))
	for _, c := range []struct {
		where string
		rows  int
	}{
		{"", len(keys)},
		{"edge.OID < " + min, 0},
		{"edge.OID <= " + min, 1},
		{"edge.OID = " + min, 1},
		{min + " > edge.OID", 0},
		{"edge.OID > " + min, len(keys) - 1},
		{"edge.OID > " + max, 0},
		{"edge.OID >= " + max, 1},
		{"edge.OID = " + max, 1},
		{max + " < edge.OID", 0},
		{"edge.OID < " + max, len(keys) - 1},
		{"edge.OID >= 5 and edge.OID <= 3", 0},
		{"edge.OID >= 0", 6},
		{"edge.OID > 4611686018427387904", 3},
		{"edge.OID < -4611686018427387904", 3},
		{"edge.OID < " + min + " or edge.OID = 0", 1},
		{"edge.OID != 0 and edge.OID >= -5 and edge.OID < 5", 1},
		{"edge.OID >= -5 and edge.name = \"k6\"", 1},
	} {
		src := "retrieve (edge.name, edge.OID)"
		if c.where != "" {
			src += " where " + c.where
		}
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if res, err := agreeWithReference(t, cat, src, q); err != nil || len(res.Tuples) != c.rows {
			t.Fatalf("%q: %v rows, %v; want %d", src, res, err, c.rows)
		}
		agreeInLentSink(t, cat, src)
	}
}

// TestKeyConjunctsLeaveThePredicate: binding a scanned relation drops
// the top-level conjuncts its bounded scan holds — a comparison of its
// key with an integer constant, either way round — and keeps every
// other node; a join, whose outer scan is unbounded, keeps them all.
func TestKeyConjunctsLeaveThePredicate(t *testing.T) {
	cat := fuzzCat()
	for _, c := range []struct{ src, left string }{
		{`retrieve (member.name) where member.OID >= 2 and member.OID <= 4`, "<nil>"},
		{`retrieve (member.name) where 2 <= member.OID and member.OID = 3 and member.OID < 9`, "<nil>"},
		{`retrieve (member.name) where member.OID >= 2 and member.score > 1`, "score"},
		{`retrieve (member.name) where member.OID != 2`, "!="},
		{`retrieve (member.name) where member.OID = 2 or member.OID = 4`, "or"},
		{`retrieve (member.name) where not member.OID = 2`, "not"},
		{`retrieve (team.members.name) where team.OID >= 1 and team.OID <= 3`, "<nil>"},
		{`retrieve (member.name, guest.name) where member.OID >= 2 and guest.OID = member.score`, "and"},
	} {
		s := lend()
		if _, _, err := queryIn(s, Store{Cat: cat, View: cat}, c.src); err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		left := "<nil>"
		if w := s.b.where; w != nil {
			switch {
			case w.op == opAnd:
				left = "and"
			case w.op == opOr:
				left = "or"
			case w.op == opNot:
				left = "not"
			case w.op == opNE:
				left = "!="
			case w.a.slot >= 0 && w.a.idx == 2:
				left = "score"
			default:
				left = fmt.Sprintf("%+v", *w)
			}
		}
		s.release()
		if left != c.left {
			t.Fatalf("%q leaves %s of its predicate, want %s", c.src, left, c.left)
		}
	}
}

// TestShapeHitRebindsWhenItMust: a statement with the last one's shape
// keeps its binding only when the last run in the call state succeeded, no
// other query ran there since, and the catalog still names the bound
// relations — not after a failed parse, bind or run, an Execute in the
// same call state, a catalog of another database, or a relation dropped and
// created again under its name with its columns elsewhere.
func TestShapeHitRebindsWhenItMust(t *testing.T) {
	build := func(prefix string, nameFirst bool) *catalog.Catalog {
		cat := catalog.New(buffer.New(disk.NewSim(), 64))
		create(t, cat, prefix, nameFirst)
		return cat
	}
	a, b := build("a", false), build("b", true)
	s := lend()
	defer s.release()
	const shape = "retrieve (p.name) where p.OID >= %d and p.OID <= %d and p.age > 10"
	check := func(cat *catalog.Catalog, lo, hi int64, want string) {
		t.Helper()
		_, rows, err := queryIn(s, Store{Cat: cat, View: cat}, fmt.Sprintf(shape, lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rows); got != want {
			t.Fatalf("[%d,%d] = %s, want %s", lo, hi, got, want)
		}
	}
	check(a, 1, 3, "[(a2) (a3)]")
	check(a, 2, 4, "[(a2) (a3) (a4)]")
	if !s.parse.hit || !s.reusable {
		t.Fatal("a statement of the last one's shape was not a hit")
	}
	check(b, 2, 4, "[(b2) (b3) (b4)]")
	check(a, 3, 5, "[(a3) (a4) (a5)]")
	for _, fail := range []string{
		"retrieve (p.name) where p.OID >= 1 and p.OID <=",     // parse
		"retrieve (p.nosuch) where p.OID >= 1 and p.OID <= 2", // bind
		`retrieve (p.name) where p.OID >= 1 and p.OID <= 2 and p.age > "x"`,
	} {
		if _, _, err := queryIn(s, Store{Cat: b, View: b}, fail); err == nil {
			t.Fatalf("%q succeeded", fail)
		}
		check(a, 1, 2, "[(a2)]")
		check(b, 1, 2, "[(b2)]")
	}
	// A run of the shape that fails once it meets a row: where p has no
	// age, the bound predicate raises on the first one.
	d := catalog.New(buffer.New(disk.NewSim(), 64))
	ds := tuple.NewSchema(tuple.Field{Name: "OID", Kind: tuple.KInt}, tuple.Field{Name: "name", Kind: tuple.KString})
	dp, err := d.CreateBTree("p", ds)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := tuple.Encode(nil, ds, tuple.Tuple{tuple.IntVal(1), tuple.StrVal("d1")})
	if err := dp.Tree.Insert(1, rec); err != nil {
		t.Fatal(err)
	}
	check(d, 5, 6, "[]")
	if _, _, err := queryIn(s, Store{Cat: d, View: d}, fmt.Sprintf(shape, 1, 2)); err == nil {
		t.Fatal("a predicate over a missing attribute passed a row")
	}
	check(d, 5, 6, "[]")
	check(a, 1, 2, "[(a2)]")
	// Another query run in the call state, as Execute runs one: its binding,
	// without the age conjunct, is not the shape's.
	q, err := Parse("retrieve (p.name) where p.OID >= 1 and p.OID <= 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.run(Store{Cat: a, View: a}, q); err != nil {
		t.Fatal(err)
	}
	check(a, 1, 2, "[(a2)]")
	if err := a.Drop("p"); err != nil {
		t.Fatal(err)
	}
	create(t, a, "c", true)
	check(a, 4, 5, "[(c4) (c5)]")
}

// create makes relation p in cat: keys 1-6, names prefix1-prefix6, ages
// 10 apart from 10, with the name after the age or (nameFirst) before.
func create(t *testing.T, cat *catalog.Catalog, prefix string, nameFirst bool) {
	t.Helper()
	fields := []tuple.Field{{Name: "OID", Kind: tuple.KInt}, {Name: "age", Kind: tuple.KInt}, {Name: "name", Kind: tuple.KString}}
	if nameFirst {
		fields[1], fields[2] = fields[2], fields[1]
	}
	s := tuple.NewSchema(fields...)
	p, err := cat.CreateBTree("p", s)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 6; k++ {
		row := tuple.Tuple{tuple.IntVal(k), tuple.IntVal(10 * k), tuple.StrVal(fmt.Sprintf("%s%d", prefix, k))}
		if nameFirst {
			row[1], row[2] = row[2], row[1]
		}
		rec, err := tuple.Encode(nil, s, row)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Tree.Insert(k, rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNonASCIIIdentifiers: identifiers are classed by rune, not by byte
// — a name CreateRelation accepts parses whatever UTF-8 it is spelled
// in — and a statement that is not UTF-8 is refused at the offending
// byte.
func TestNonASCIIIdentifiers(t *testing.T) {
	for _, src := range []string{"retrieve (café.x)", "retrieve (ê.x)", "retrieve (naïve_1.größe) where naïve_1.x2 = 1"} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if q.String() != src {
			t.Fatalf("%q parses as %s", src, q)
		}
	}
	for _, c := range []struct{ src, err string }{
		{"retrieve (caf\xe9.x)", "pql: invalid UTF-8 at 13"},
		{"retrieve (\xff.x)", "pql: invalid UTF-8 at 10"},
		{"retrieve (a.b) where a.c = ©", "pql: unexpected character '©' at 27"},
		{"retrieve (a.b©)", "pql: unexpected character '©' at 13"},
		{"retrieve (a.b) where a.c = $", "pql: unexpected character '$' at 27"},
	} {
		if _, err := Parse(c.src); err == nil || err.Error() != c.err {
			t.Fatalf("%q: error %v, want %s", c.src, err, c.err)
		}
	}
	// End to end: a relation whose name is not ASCII answers a query.
	cat := catalog.New(buffer.New(disk.NewSim(), 16))
	s := tuple.NewSchema(tuple.Field{Name: "OID", Kind: tuple.KInt}, tuple.Field{Name: "größe", Kind: tuple.KInt})
	rel, err := cat.CreateBTree("café", s)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := tuple.Encode(nil, s, tuple.Tuple{tuple.IntVal(1), tuple.IntVal(42)})
	if err := rel.Tree.Insert(1, rec); err != nil {
		t.Fatal(err)
	}
	cols, rows, err := Store{Cat: cat, View: cat}.Query("retrieve (café.größe) where café.OID = 1")
	if err != nil || strings.Join(cols, ",") != "café.größe" || fmt.Sprint(rows) != "[(42)]" {
		t.Fatalf("query over café: %v %v %v", cols, rows, err)
	}
}
