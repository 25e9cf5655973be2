package pql

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
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

// --- multi-dot parse tests ---

func TestParsePath(t *testing.T) {
	q, err := Parse(`retrieve (team.name, team.members.score) where team.budget > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Targets) != 2 {
		t.Fatalf("targets = %+v", q.Targets)
	}
	pt := q.Targets[1]
	if !pt.Pathy() || pt.Rel != "team" || pt.Attr != "members" || len(pt.Path) != 1 || pt.Path[0] != "score" {
		t.Fatalf("path target = %+v", pt)
	}
	if got := pt.String(); got != "team.members.score" {
		t.Fatalf("String() = %q", got)
	}
	// Deeper paths keep accumulating segments.
	q2, err := Parse(`retrieve (league.teams.members.name)`)
	if err != nil {
		t.Fatal(err)
	}
	if p := q2.Targets[0].Path; len(p) != 2 || p[0] != "members" || p[1] != "name" {
		t.Fatalf("path = %v", p)
	}
	// Round trip through the canonical form.
	if _, err := Parse(q.String()); err != nil {
		t.Fatalf("round trip %q: %v", q.String(), err)
	}
}

// --- execution fixtures ---

// teamDB builds a two-level complex-object catalog: member(OID, name,
// score) rows, and team(OID, name, members) where members is a children
// attribute in one of the paper's representations (OID-based,
// value-based/nested, or procedural).
func teamDB(t *testing.T, rep byte) (*catalog.Catalog, *catalog.Relation, *catalog.Relation) {
	t.Helper()
	cat := catalog.New(buffer.New(disk.NewSim(), 64))
	memberSchema := tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "name", Kind: tuple.KString, Width: 12},
		tuple.Field{Name: "score", Kind: tuple.KInt},
	)
	member, err := cat.CreateBTree("member", memberSchema)
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		name  string
		score int64
	}
	members := []m{{"ann", 9}, {"bob", 4}, {"col", 7}, {"dee", 2}, {"eve", 5}, {"fay", 8}}
	for i, mm := range members {
		rec, err := tuple.Encode(nil, memberSchema, tuple.Tuple{
			tuple.IntVal(int64(i + 1)), tuple.StrVal(mm.name), tuple.IntVal(mm.score),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := member.Tree.Insert(int64(i+1), rec); err != nil {
			t.Fatal(err)
		}
	}

	teamSchema := tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "name", Kind: tuple.KString, Width: 12},
		tuple.Field{Name: "members", Kind: tuple.KBytes, Width: 128},
	)
	team, err := cat.CreateBTree("team", teamSchema)
	if err != nil {
		t.Fatal(err)
	}
	// Team 1 owns members 1-3, team 2 owns 4-6.
	for ti := 0; ti < 2; ti++ {
		var kids []byte
		switch rep {
		case object.TagOIDs:
			oids := make([]object.OID, 3)
			for i := range oids {
				oids[i] = object.NewOID(member.ID, int64(ti*3+i+1))
			}
			kids = append([]byte{object.TagOIDs}, object.EncodeOIDs(oids)...)
		case object.TagValue:
			var rows []tuple.Tuple
			for i := 0; i < 3; i++ {
				mm := members[ti*3+i]
				rows = append(rows, tuple.Tuple{
					tuple.IntVal(int64(ti*3 + i + 1)), tuple.StrVal(mm.name), tuple.IntVal(mm.score),
				})
			}
			body, err := object.EncodeNested(memberSchema, rows)
			if err != nil {
				t.Fatal(err)
			}
			kids = append([]byte{object.TagValue, 0, 0}, body...)
			binary.LittleEndian.PutUint16(kids[1:3], member.ID)
		case object.TagProc:
			src := fmt.Sprintf("retrieve (member.OID, member.name, member.score) where member.OID >= %d and member.OID <= %d",
				ti*3+1, ti*3+3)
			kids = append([]byte{object.TagProc}, src...)
		default:
			t.Fatalf("unknown rep %q", rep)
		}
		rec, err := tuple.Encode(nil, teamSchema, tuple.Tuple{
			tuple.IntVal(int64(ti + 1)), tuple.StrVal(fmt.Sprintf("team%d", ti+1)), tuple.BytesVal(kids),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := team.Tree.Insert(int64(ti+1), rec); err != nil {
			t.Fatal(err)
		}
	}
	return cat, team, member
}

func pathInts(res *Result, col int) []int64 {
	var out []int64
	for _, t := range res.Tuples {
		out = append(out, t[col].Int)
	}
	return out
}

// TestExecPathEveryRepresentation: the same multi-dot query must return
// the same rows whichever representation the children attribute uses —
// OID list, nested value, or stored query (the paper's three primaries).
func TestExecPathEveryRepresentation(t *testing.T) {
	for _, rep := range []byte{object.TagOIDs, object.TagValue, object.TagProc} {
		rep := rep
		t.Run(string(rep), func(t *testing.T) {
			cat, team, member := teamDB(t, rep)
			_, _ = team, member
			res, err := Execute(cat, mustParse(t, `retrieve (team.name, team.members.score) where team.OID <= 2`))
			if err != nil {
				t.Fatal(err)
			}
			if got := pathInts(res, 1); !reflect.DeepEqual(got, []int64{9, 4, 7, 2, 5, 8}) {
				t.Fatalf("scores = %v", got)
			}
			// Plain targets repeat once per expanded subobject, join-style.
			var names []string
			for _, tp := range res.Tuples {
				names = append(names, tp[0].Str)
			}
			if !reflect.DeepEqual(names, []string{"team1", "team1", "team1", "team2", "team2", "team2"}) {
				t.Fatalf("names = %v", names)
			}
			// The path column's schema entry carries the leaf's field spec.
			if f := res.Schema.Fields[1]; f.Name != "team.members.score" || f.Kind != tuple.KInt {
				t.Fatalf("path field = %+v", f)
			}
			// Sources name the root rows that produced each output row.
			if len(res.Sources) != 6 || res.Sources[0].Key != 1 || res.Sources[5].Key != 2 {
				t.Fatalf("sources = %+v", res.Sources)
			}
		})
	}
}

// TestExecPathMatchesPerOIDProbes: the expander fetches an OID list in
// one page-ordered sweep per referenced relation; the rows — values,
// order, Sources — are those of the reference evaluator, which fetches
// each subobject with a ViewOID of its own and decodes it whole. Team 3
// lists subobjects of two relations, interleaved: the sweeps visit one
// relation after the other, the rows come out in list order.
func TestExecPathMatchesPerOIDProbes(t *testing.T) {
	cat, team, member := teamDB(t, object.TagOIDs)
	guest, err := cat.CreateBTree("guest", member.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"gus", "hal", "ivy"} {
		rec, err := tuple.Encode(nil, guest.Schema, tuple.Tuple{tuple.IntVal(int64(i + 1)), tuple.StrVal(name), tuple.IntVal(int64(10 + i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := guest.Tree.Insert(int64(i+1), rec); err != nil {
			t.Fatal(err)
		}
	}
	mixed := []object.OID{
		object.NewOID(guest.ID, 3), object.NewOID(member.ID, 6), object.NewOID(guest.ID, 1),
		object.NewOID(member.ID, 2), object.NewOID(guest.ID, 2),
	}
	rec, err := tuple.Encode(nil, team.Schema, tuple.Tuple{tuple.IntVal(3), tuple.StrVal("team3"),
		tuple.BytesVal(append([]byte{object.TagOIDs}, object.EncodeOIDs(mixed)...))})
	if err != nil {
		t.Fatal(err)
	}
	if err := team.Tree.Insert(3, rec); err != nil {
		t.Fatal(err)
	}
	const mixedQuery = `retrieve (team.members.name) where team.OID = 3`
	for _, src := range []string{
		`retrieve (team.members.score)`,
		`retrieve (team.name, team.members.name) where team.OID = 2`,
		`retrieve (team.members.OID) where team.OID >= 1 and team.OID <= 2`,
		mixedQuery,
	} {
		got, err := agreeWithReference(t, cat, src, mustParse(t, src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if src != mixedQuery {
			continue
		}
		if got := names(got, 0); !reflect.DeepEqual(got, []string{"ivy", "fay", "gus", "bob", "hal"}) {
			t.Fatalf("mixed list: names = %v, want list order", got)
		}
	}
}

// TestExpansionReadsNoMorePagesThanProbes is the property the expander
// having one operator rests on: for an OID list below btree's
// BatchSortMin (where the sweep is the probe loop) and one well above it
// (where it sorts), expanding the list reads no more pages than fetching
// its subobjects one ViewOID at a time, from the same cold pool.
func TestExpansionReadsNoMorePagesThanProbes(t *testing.T) {
	cat, pool := viewDB(t, 8)
	item, err := cat.Get("item")
	if err != nil {
		t.Fatal(err)
	}
	part, err := cat.Get("part")
	if err != nil {
		t.Fatal(err)
	}
	cold := func(fetch func() error) int64 {
		t.Helper()
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := pool.Invalidate(); err != nil {
			t.Fatal(err)
		}
		before := pool.Disk().Stats().Reads
		if err := fetch(); err != nil {
			t.Fatal(err)
		}
		testutil.AssertNoLeaks(t, pool)
		return pool.Disk().Stats().Reads - before
	}
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{buffer.BatchSortMin - 1, 4 * buffer.BatchSortMin} {
		oids := make([]object.OID, n)
		for i := range oids {
			oids[i] = object.NewOID([]*catalog.Relation{item, part}[rng.Intn(2)].ID, 1+rng.Int63n(400))
		}
		var probed, expanded []tuple.Value
		probes := cold(func() error {
			for _, oid := range oids {
				err := cat.ViewOID(oid, func(rel *catalog.Relation, rec []byte) error {
					v, err := tuple.DecodeField(rel.Schema, rec, 1)
					probed = append(probed, v)
					return err
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		sweep := cold(func() (err error) {
			expanded, err = Store{Cat: cat, View: cat}.Expander().ExpandOIDs(0, oids, []string{"name"}, nil)
			return err
		})
		if !reflect.DeepEqual(expanded, probed) {
			t.Fatalf("%d OIDs: the expansion and the probes return different values", n)
		}
		if sweep > probes {
			t.Errorf("%d OIDs: the expansion reads %d pages, one probe per OID %d", n, sweep, probes)
		}
		t.Logf("%d OIDs: expansion %d page reads, probes %d", n, sweep, probes)
	}
}

// TestExecPathCycleGuard: a stored query that reaches back into its own
// relation must hit the depth bound, not loop.
func TestExecPathCycleGuard(t *testing.T) {
	cat := catalog.New(buffer.New(disk.NewSim(), 64))
	schema := tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "next", Kind: tuple.KBytes, Width: 64},
	)
	loop, err := cat.CreateBTree("loop", schema)
	if err != nil {
		t.Fatal(err)
	}
	kids := append([]byte{object.TagProc}, `retrieve (loop.next.next) where loop.OID = 1`...)
	rec, err := tuple.Encode(nil, schema, tuple.Tuple{tuple.IntVal(1), tuple.BytesVal(kids)})
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.Tree.Insert(1, rec); err != nil {
		t.Fatal(err)
	}
	_, err = Execute(cat, mustParse(t, `retrieve (loop.next.next) where loop.OID = 1`))
	if err == nil || !strings.Contains(err.Error(), "deeper than") {
		t.Fatalf("cycle not caught: %v", err)
	}
	if !errors.Is(err, ErrExec) {
		t.Fatalf("not an exec error: %v", err)
	}
}

func TestExecPathErrors(t *testing.T) {
	cat, _, _ := teamDB(t, object.TagOIDs)
	for _, tc := range []struct{ src, want string }{
		{`retrieve (team.members.score, team.members.name)`, "at most one"},
		{`retrieve (team.all, team.members.score)`, "cannot accompany"},
		{`retrieve (team.name.score)`, "not a children attribute"},
		{`retrieve (team.nope.score)`, "no attribute"},
		{`retrieve (team.members.score) where member.score > 1`, "must bind only"},
	} {
		_, err := Execute(cat, mustParse(t, tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.src, err, tc.want)
		}
	}
	// An unknown representation tag is a clean error.
	schema := tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "kids", Kind: tuple.KBytes, Width: 16},
	)
	bad, err := catalog.New(buffer.New(disk.NewSim(), 64)).CreateBTree("bad", schema)
	if err != nil {
		t.Fatal(err)
	}
	_ = bad
}

// TestExplainPath: the plan surface names the pipeline's operators.
func TestExplainPath(t *testing.T) {
	cat, _, _ := teamDB(t, object.TagOIDs)
	plan, err := Explain(cat, mustParse(t, `retrieve (team.name, team.members.score) where team.OID <= 2`), ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("empty plan")
	}
	s := plan.String()
	for _, want := range []string{"team", "expand", "members"} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan %q missing %q", s, want)
		}
	}
}

// TestExecSingleStreaming pins the refactored single-relation pipeline
// to the legacy semantics on the existing fixture.
func TestExecSingleStreaming(t *testing.T) {
	cat := personDB(t)
	res, err := Store{Cat: cat, View: cat}.Execute(mustParse(t, `retrieve (person.name) where person.age >= 60`))
	if err != nil {
		t.Fatal(err)
	}
	if got := names(res, 0); !reflect.DeepEqual(got, []string{"John", "Mary", "Paul"}) {
		t.Fatalf("names = %v", got)
	}
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}
