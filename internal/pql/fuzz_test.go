package pql

import (
	"encoding/binary"
	"fmt"
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
// not understand.
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

	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
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
// the reference comparison once per process: member/guest B-trees and a
// visitor heap to select from and join, a team → member complex-object
// layer covering all three children representations (OID list — one of
// them spanning two relations — nested value, stored query), and a
// league → team layer above it, again in all three, for two-segment
// paths.
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
			if rel.Kind == catalog.KindHeap {
				_, err = rel.Heap.Append(rec)
			} else {
				err = rel.Tree.Insert(t[0].Int, rec)
			}
			must(err)
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
		visitor, err := cat.CreateHeap("visitor", personSchema())
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
		fuzzCatalog.cat = cat
	})
	return fuzzCatalog.cat
}

// FuzzPQLPlan drives the full parse → plan → execute pipeline against a
// live complex-object catalog. The contract: nothing panics, Explain
// succeeds whenever execution does, and the bound executor returns
// exactly what the decode-everything reference evaluator — one probe per
// reached subobject — returns (reference_test.go): rows, Sources, result
// schema, and failing or not.
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
		if _, err := agreeWithReference(t, cat, src, q); err != nil {
			return
		}
		if _, err := Explain(cat, q, ExecOpts{}); err != nil {
			t.Fatalf("executable query %q does not explain: %v", src, err)
		}
	})
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
