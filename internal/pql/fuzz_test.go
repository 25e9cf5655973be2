package pql

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"corep/internal/buffer"
	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/tuple"
)

// FuzzPQLParse throws arbitrary source at the QUEL-subset parser. The
// contract under fuzzing: Parse never panics and never loops — it
// returns a query or an error. When it returns a query, printing and
// re-parsing must agree with the original parse (String is the
// canonical form the procedural representation stores on disk), except
// for string constants whose printed form needs escapes the lexer does
// not understand. A parse from the statement's bytes — the way a stored
// query is read off its page — agrees with the parse of its string, also
// into used scratch, and keeps nothing of the bytes: scribbling over
// them afterwards changes nothing the query holds. A statement of the
// shape the scratch has just parsed — src with its numbers changed — is
// only its constants rewritten (parse's hit), and prints as a fresh
// parse of it does.
func FuzzPQLParse(f *testing.F) {
	f.Add("retrieve (person.all) where person.age >= 60")
	f.Add(`retrieve (person.name) where person.name = cyclist.name`)
	f.Add(`retrieve (e.salary, e.dept) where (e.age < 30 or e.age > 65) and not e.dept = "toy"`)
	f.Add("retrieve(a.b)where a.c!=-12")
	f.Add("retrieve (x.all) where x.hashkey# = 7")
	f.Add("retrieve (team.name, team.members.score) where team.budget > 10")
	f.Add("retrieve (league.teams.members.name)")
	f.Add("retrieve (a.b.c.d.e.f.g.h.i.j)")
	f.Add("retrieve (a.b.) where a.c = 1")
	f.Add("retrieve (")
	f.Add(`retrieve (a.b) where a.c = "unterminated`)
	f.Add("where where where")
	f.Add("")
	f.Add("retrieve (café.x) where café.n >= -9223372036854775808")
	f.Add("retrieve (ê.x, naïve1.y)")
	f.Add("retrieve (caf\xe9.x)")

	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		// A scratch that has just parsed another statement — a whole one,
		// one cut short, or one that shares identifiers with src — hands
		// its nodes, path segments and identifiers out again: the parse,
		// from src's string or its bytes, must come out as a fresh one
		// does, or fail the same way.
		for _, before := range []string{
			"",
			`retrieve (league.teams.members.name, x.all, a.b.c) where (a.b = 1 or not a.c != "s") and x.y < 3`,
			`retrieve (a.b.c.d, e.f) where a.b = 1 and not`,
			src,
		} {
			for _, fromBytes := range []bool{false, true} {
				var sc parseScratch
				if before != "" {
					if fromBytes {
						parse(&sc, before)
					} else {
						parse(&sc, []byte(before))
					}
				}
				var again *Query
				var err2 error
				if fromBytes {
					raw := []byte(src)
					again, err2 = parse(&sc, raw)
					for i := range raw {
						raw[i] = 'x'
					}
				} else {
					again, err2 = parse(&sc, src)
				}
				if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() {
					t.Fatalf("%q (bytes %v) after %q: error %v, fresh parse %v", src, fromBytes, before, err2, err)
				}
				if err == nil && again.String() != q.String() {
					t.Fatalf("%q (bytes %v) after %q parses as %s, fresh %s", src, fromBytes, before, again, q)
				}
			}
		}
		for _, shift := range numberShifts {
			v := renumber(src, shift)
			fresh, ferr := Parse(v)
			for _, fromBytes := range []bool{false, true} {
				var sc parseScratch
				parse(&sc, src)
				var got *Query
				var err2 error
				if fromBytes {
					got, err2 = parse(&sc, []byte(v))
				} else {
					got, err2 = parse(&sc, v)
				}
				if (ferr == nil) != (err2 == nil) || ferr != nil && ferr.Error() != err2.Error() {
					t.Fatalf("%q (bytes %v) after %q: error %v, fresh parse %v", v, fromBytes, src, err2, ferr)
				}
				if ferr != nil {
					continue
				}
				if got.String() != fresh.String() {
					t.Fatalf("%q (bytes %v) after %q parses as %s, fresh %s", v, fromBytes, src, got, fresh)
				}
				if err == nil && !sc.hit {
					t.Fatalf("%q after %q, which has its shape, was parsed afresh", v, src)
				}
			}
		}
		if err != nil {
			return // rejected cleanly
		}
		if len(q.Targets) == 0 {
			t.Fatalf("parse accepted %q with an empty target list", src)
		}
		printed := q.String()
		if !reparseable(q) {
			return
		}
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", printed, src, err)
		}
		if got := q2.String(); got != printed {
			t.Fatalf("canonical form is not a fixed point:\n 1st: %s\n 2nd: %s", printed, got)
		}
	})
}

// fuzzCatalog builds the shared execution fixture for FuzzPQLPlan and
// the reference comparison once per process: member, guest and visitor
// B-trees to select from and join, a team → member complex-object
// layer covering all three children representations (OID list — one of
// them spanning two relations — nested value, stored query), a league →
// team layer above it, again in all three, for two-segment paths, and a
// club → members layer of stored queries with different target lists.
var fuzzCatalog struct {
	once sync.Once
	cat  *catalog.Catalog
}

func fuzzCat() *catalog.Catalog {
	fuzzCatalog.once.Do(func() {
		cat := catalog.New(buffer.New(disk.NewSim(), 128))
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		insert := func(rel *catalog.Relation, t tuple.Tuple) {
			rec, err := tuple.Encode(nil, rel.Schema, t)
			must(err)
			must(rel.Tree.Insert(t[0].Int, rec))
		}
		personSchema := func() *tuple.Schema {
			return tuple.NewSchema(
				tuple.Field{Name: "OID", Kind: tuple.KInt},
				tuple.Field{Name: "name", Kind: tuple.KString, Width: 12},
				tuple.Field{Name: "score", Kind: tuple.KInt},
			)
		}
		memberRow := func(i int) tuple.Tuple {
			return tuple.Tuple{tuple.IntVal(int64(i + 1)), tuple.StrVal(fmt.Sprintf("m%d", i)), tuple.IntVal(int64(i * 3 % 7))}
		}
		member, err := cat.CreateBTree("member", personSchema())
		must(err)
		for i := 0; i < 9; i++ {
			insert(member, memberRow(i))
		}
		guest, err := cat.CreateBTree("guest", personSchema())
		must(err)
		for i := 0; i < 4; i++ {
			insert(guest, tuple.Tuple{tuple.IntVal(int64(i + 1)), tuple.StrVal(fmt.Sprintf("g%d", i)), tuple.IntVal(int64(10 + i))})
		}
		visitor, err := cat.CreateBTree("visitor", personSchema())
		must(err)
		for i, name := range []string{"m2", "v1", "m7", "g0"} {
			insert(visitor, tuple.Tuple{tuple.IntVal(int64(i + 1)), tuple.StrVal(name), tuple.IntVal(int64(i))})
		}

		oidList := func(oids ...object.OID) []byte {
			return append([]byte{object.TagOIDs}, object.EncodeOIDs(oids)...)
		}
		nested := func(rel *catalog.Relation, rows ...tuple.Tuple) []byte {
			body, err := object.EncodeNested(rel.Schema, rows)
			must(err)
			kids := append([]byte{object.TagValue, 0, 0}, body...)
			binary.LittleEndian.PutUint16(kids[1:3], rel.ID)
			return kids
		}
		stored := func(src string) []byte { return append([]byte{object.TagProc}, src...) }

		team, err := cat.CreateBTree("team", tuple.NewSchema(
			tuple.Field{Name: "OID", Kind: tuple.KInt},
			tuple.Field{Name: "name", Kind: tuple.KString, Width: 12},
			tuple.Field{Name: "members", Kind: tuple.KBytes, Width: 128},
		))
		must(err)
		teamRows := []tuple.Tuple{
			{tuple.IntVal(1), tuple.StrVal("t0"), tuple.BytesVal(oidList(
				object.NewOID(member.ID, 1), object.NewOID(member.ID, 2), object.NewOID(member.ID, 3)))},
			{tuple.IntVal(2), tuple.StrVal("t1"), tuple.BytesVal(stored(
				"retrieve (member.OID, member.name, member.score) where member.OID >= 4 and member.OID <= 6"))},
			{tuple.IntVal(3), tuple.StrVal("t2"), tuple.BytesVal(nested(member, memberRow(6), memberRow(7), memberRow(8)))},
			// The OID list spans two relations, and not in relation order.
			{tuple.IntVal(4), tuple.StrVal("t3"), tuple.BytesVal(oidList(
				object.NewOID(guest.ID, 2), object.NewOID(member.ID, 9), object.NewOID(guest.ID, 1), object.NewOID(member.ID, 5)))},
			{tuple.IntVal(5), tuple.StrVal("t4"), tuple.BytesVal(nil)},
		}
		for _, t := range teamRows {
			insert(team, t)
		}

		league, err := cat.CreateBTree("league", tuple.NewSchema(
			tuple.Field{Name: "OID", Kind: tuple.KInt},
			tuple.Field{Name: "name", Kind: tuple.KString, Width: 12},
			tuple.Field{Name: "teams", Kind: tuple.KBytes, Width: 512},
		))
		must(err)
		insert(league, tuple.Tuple{tuple.IntVal(1), tuple.StrVal("l0"), tuple.BytesVal(oidList(
			object.NewOID(team.ID, 4), object.NewOID(team.ID, 1), object.NewOID(team.ID, 2), object.NewOID(team.ID, 3)))})
		insert(league, tuple.Tuple{tuple.IntVal(2), tuple.StrVal("l1"), tuple.BytesVal(nested(team, teamRows[2], teamRows[0]))})
		insert(league, tuple.Tuple{tuple.IntVal(3), tuple.StrVal("l2"), tuple.BytesVal(stored(
			"retrieve (team.name, team.members) where team.OID <= 2 or team.OID = 5"))})
		insert(league, tuple.Tuple{tuple.IntVal(4), tuple.StrVal("l3"), tuple.BytesVal(stored(
			"retrieve (team.members.name, team.name) where team.OID >= 3"))})

		// A club's members are mostly stored queries, each with its own
		// target list over its own relation — rel.all, reordered columns,
		// a path — so an expansion runs one after the other at the same
		// depth, each in the storage the last one left, where a column
		// sits elsewhere.
		club, err := cat.CreateBTree("club", team.Schema)
		must(err)
		for i, kids := range [][]byte{
			stored("retrieve (member.all) where member.OID <= 2"),
			stored("retrieve (guest.OID, guest.score, guest.name) where guest.OID >= 3"),
			oidList(object.NewOID(member.ID, 7)),
			stored("retrieve (team.members.name) where team.OID = 1"),
			stored("retrieve (visitor.name, visitor.OID)"),
			stored("retrieve (member.score, member.name) where member.OID = 4"),
		} {
			insert(club, tuple.Tuple{tuple.IntVal(int64(i + 1)), tuple.StrVal(fmt.Sprintf("c%d", i)), tuple.BytesVal(kids)})
		}
		fuzzCatalog.cat = cat
	})
	return fuzzCatalog.cat
}

// FuzzPQLPlan drives the full parse → plan → execute pipeline against a
// live complex-object catalog. The contract: nothing panics, Explain
// succeeds whenever execution does, and the bound executor returns
// exactly what the decode-everything reference evaluator — one probe per
// reached subobject — returns (reference_test.go): rows, Sources, result
// schema, and failing or not — also when the statement runs in a lent
// call state after others of its shape (agreeInLentSink).
func FuzzPQLPlan(f *testing.F) {
	for _, src := range referenceQueries {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		cat := fuzzCat()
		agreeInLentSink(t, cat, src)
		if _, err := agreeWithReference(t, cat, src, q); err != nil {
			return
		}
		if _, err := Explain(cat, q, ExecOpts{}); err != nil {
			t.Fatalf("executable query %q does not explain: %v", src, err)
		}
	})
}

// numberShifts change a statement's numbers, keeping its shape: the
// same values, neighbours, far ones and both ends of int64.
var numberShifts = []func(int64) int64{
	func(n int64) int64 { return n },
	func(n int64) int64 { return n + 1 },
	func(n int64) int64 { return 2 - n },
	func(n int64) int64 { return n * 3 },
	func(int64) int64 { return math.MinInt64 },
	func(int64) int64 { return math.MaxInt64 },
}

// renumber rewrites every number of src with shift and leaves the rest
// of its text as it is: a statement of the same shape.
func renumber(src string, shift func(int64) int64) string {
	var b strings.Builder
	last := 0
	for off := 0; ; {
		t, next, err := lexAt(src, off)
		if err != nil || t.kind == tokEOF {
			break
		}
		if t.kind == tokNumber {
			if n, ok := number(src[t.lo:t.hi]); ok {
				b.WriteString(src[last:t.lo])
				b.WriteString(strconv.FormatInt(shift(n), 10))
				last = t.hi
			}
		}
		off = next
	}
	b.WriteString(src[last:])
	return b.String()
}

// agreeInLentSink runs src and the statements of its shape renumber
// makes one after the other in one lent call state, the way Query runs them:
// each after the first reuses the last one's parse (a hit) and, when
// that one ran, its binding. Each must fail when the reference fails
// and else return the reference's columns and rows.
func agreeInLentSink(t *testing.T, cat *catalog.Catalog, src string) {
	t.Helper()
	s := lend()
	defer s.release()
	st := Store{Cat: cat, View: cat}
	for i, shift := range numberShifts {
		v := renumber(src, shift)
		q, err := Parse(v)
		if err != nil {
			return
		}
		want, wantErr := refExecute(cat, q, 0)
		cols, rows, err := queryIn(s, st, v)
		if i > 0 && !s.parse.hit {
			t.Fatalf("%q after a statement of its shape was parsed afresh", v)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q in a lent call state: error %v, reference %v", v, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !slices.Equal(cols, want.Schema.Names()) {
			t.Fatalf("%q in a lent call state: columns %v, reference %v", v, cols, want.Schema.Names())
		}
		if len(rows) != len(want.Tuples) {
			t.Fatalf("%q in a lent call state: %d rows, reference %d", v, len(rows), len(want.Tuples))
		}
		for j := range rows {
			if !reflect.DeepEqual(rows[j], want.Tuples[j]) {
				t.Fatalf("%q in a lent call state: row %d = %v, reference %v", v, j, rows[j], want.Tuples[j])
			}
		}
	}
}

// reparseable reports whether every string constant in q survives
// strconv.Quote unescaped — the lexer reads raw bytes between quotes,
// so escaped forms (`\n`, `\"`, …) would re-parse as different text.
func reparseable(q *Query) bool {
	ok := true
	check := func(o Operand) {
		if !o.Column() && o.IsStr {
			if strings.ContainsAny(o.Str, "\"\\") || !plainASCII(o.Str) {
				ok = false
			}
		}
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *BinBool:
			walk(v.L)
			walk(v.R)
		case *Not:
			walk(v.E)
		case *Compare:
			check(v.L)
			check(v.R)
		}
	}
	if q.Where != nil {
		walk(q.Where)
	}
	return ok
}

func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e {
			return false
		}
	}
	return true
}
