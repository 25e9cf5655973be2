package pql

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"corep/internal/buffer"
	"corep/internal/catalog"
	"corep/internal/disk"
	"corep/internal/tuple"
)

// --- parser tests ---

func TestParseSimple(t *testing.T) {
	q, err := Parse(`retrieve (person.all) where person.age >= 60`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Targets) != 1 || q.Targets[0].Rel != "person" || !q.Targets[0].All() {
		t.Fatalf("targets = %+v", q.Targets)
	}
	c, ok := q.Where.(*Compare)
	if !ok {
		t.Fatalf("where = %T", q.Where)
	}
	if c.Op != ">=" || !c.L.Column() || c.R.Num != 60 {
		t.Fatalf("compare = %+v", c)
	}
}

func TestParseMultiTarget(t *testing.T) {
	q, err := Parse(`retrieve (p.name, p.age) where p.age < 15`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Targets) != 2 || q.Targets[0].Attr != "name" || q.Targets[1].Attr != "age" {
		t.Fatalf("targets = %+v", q.Targets)
	}
}

func TestParseNoWhere(t *testing.T) {
	q, err := Parse(`retrieve (p.all)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where != nil {
		t.Fatal("unexpected where")
	}
}

func TestParseAndOrPrecedence(t *testing.T) {
	q, err := Parse(`retrieve (p.all) where p.a = 1 or p.b = 2 and p.c = 3`)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := q.Where.(*BinBool)
	if !ok || top.Op != "or" {
		t.Fatalf("top = %v", q.Where)
	}
	r, ok := top.R.(*BinBool)
	if !ok || r.Op != "and" {
		t.Fatalf("right = %v", top.R)
	}
}

func TestParseParens(t *testing.T) {
	q, err := Parse(`retrieve (p.all) where (p.a = 1 or p.b = 2) and p.c = 3`)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := q.Where.(*BinBool)
	if !ok || top.Op != "and" {
		t.Fatalf("top = %v", q.Where)
	}
}

func TestParseStringAndNegative(t *testing.T) {
	q, err := Parse(`retrieve (p.name) where p.name = "Mary" and p.score > -5`)
	if err != nil {
		t.Fatal(err)
	}
	top := q.Where.(*BinBool)
	l := top.L.(*Compare)
	if !l.R.IsStr || l.R.Str != "Mary" {
		t.Fatalf("string operand = %+v", l.R)
	}
	r := top.R.(*Compare)
	if r.R.Num != -5 {
		t.Fatalf("negative operand = %+v", r.R)
	}
}

func TestParseJoinPredicate(t *testing.T) {
	q, err := Parse(`retrieve (person.all) where person.name = cyclist.name`)
	if err != nil {
		t.Fatal(err)
	}
	rels := q.Relations()
	if len(rels) != 2 || rels[0] != "person" || rels[1] != "cyclist" {
		t.Fatalf("relations = %v", rels)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`RETRIEVE (p.all) WHERE p.a = 1 AND p.b = 2`); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`select (p.all)`,
		`retrieve p.all`,
		`retrieve (p.all) where`,
		`retrieve (p.all) where p.a`,
		`retrieve (p.all) where p.a = `,
		`retrieve (p.all) extra`,
		`retrieve (p.all) where p.a = "unterminated`,
		`retrieve ()`,
		`retrieve (p.all) where p.a ! 3`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("parsed %q", src)
		}
	}
}

func TestQueryString(t *testing.T) {
	src := `retrieve (p.name, q.all) where p.a = 1 and q.b = "x"`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"retrieve (p.name, q.all)", "p.a = 1", `q.b = "x"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	// Round-trip: the printed form must re-parse.
	if _, err := Parse(s); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

// --- executor tests ---

// personDB builds the paper's example database: person(OID,name,age),
// cyclist(OID,name) — both B-trees on OID.
func personDB(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(buffer.New(disk.NewSim(), 64))
	personSchema := tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "name", Kind: tuple.KString, Width: 20},
		tuple.Field{Name: "age", Kind: tuple.KInt},
	)
	person, err := cat.CreateBTree("person", personSchema)
	if err != nil {
		t.Fatal(err)
	}
	people := []struct {
		name string
		age  int64
	}{
		{"John", 62}, {"Mary", 62}, {"Paul", 68}, {"Jill", 8}, {"Bill", 12}, {"Mike", 44},
	}
	for i, p := range people {
		rec, err := tuple.Encode(nil, personSchema, tuple.Tuple{
			tuple.IntVal(int64(i + 1)), tuple.StrVal(p.name), tuple.IntVal(p.age),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := person.Tree.Insert(int64(i+1), rec); err != nil {
			t.Fatal(err)
		}
	}
	cyclistSchema := tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "name", Kind: tuple.KString, Width: 20},
	)
	cyclist, err := cat.CreateBTree("cyclist", cyclistSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"Mary", "Mike"} {
		rec, _ := tuple.Encode(nil, cyclistSchema, tuple.Tuple{tuple.IntVal(int64(i + 1)), tuple.StrVal(name)})
		if err := cyclist.Tree.Insert(int64(i+1), rec); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// Run parses and executes src in one step.
func Run(cat *catalog.Catalog, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Execute(cat, q)
}

func names(res *Result, col int) []string {
	var out []string
	for _, t := range res.Tuples {
		out = append(out, t[col].Str)
	}
	return out
}

func TestExecEldersSelection(t *testing.T) {
	cat := personDB(t)
	res, err := Run(cat, `retrieve (person.name) where person.age >= 60`)
	if err != nil {
		t.Fatal(err)
	}
	got := names(res, 0)
	if fmt.Sprint(got) != "[John Mary Paul]" {
		t.Fatalf("elders = %v", got)
	}
}

func TestExecChildrenSelection(t *testing.T) {
	cat := personDB(t)
	res, err := Run(cat, `retrieve (person.name) where person.age <= 15`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names(res, 0)) != "[Jill Bill]" {
		t.Fatalf("children = %v", names(res, 0))
	}
}

func TestExecAllTargets(t *testing.T) {
	cat := personDB(t)
	res, err := Run(cat, `retrieve (person.all) where person.age >= 68`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("tuples = %d", len(res.Tuples))
	}
	if res.Schema.NumFields() != 3 {
		t.Fatalf("fields = %d", res.Schema.NumFields())
	}
	if res.Schema.Fields[1].Name != "person.name" {
		t.Fatalf("field name = %q", res.Schema.Fields[1].Name)
	}
	if res.Tuples[0][1].Str != "Paul" {
		t.Fatalf("row = %v", res.Tuples[0])
	}
}

func TestExecNoWhere(t *testing.T) {
	cat := personDB(t)
	res, err := Run(cat, `retrieve (person.name)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 6 {
		t.Fatalf("tuples = %d", len(res.Tuples))
	}
}

func TestExecOrPredicate(t *testing.T) {
	cat := personDB(t)
	res, err := Run(cat, `retrieve (person.name) where person.age <= 8 or person.age >= 68`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names(res, 0)) != "[Paul Jill]" {
		t.Fatalf("got %v", names(res, 0))
	}
}

func TestExecJoinCyclists(t *testing.T) {
	// The paper's cyclists group: persons whose name appears in cyclist.
	cat := personDB(t)
	res, err := Run(cat, `retrieve (person.name, person.age) where person.name = cyclist.name`)
	if err != nil {
		t.Fatal(err)
	}
	got := names(res, 0)
	if fmt.Sprint(got) != "[Mary Mike]" {
		t.Fatalf("cyclists = %v", got)
	}
	if res.Tuples[0][1].Int != 62 {
		t.Fatalf("Mary age = %d", res.Tuples[0][1].Int)
	}
}

func TestExecIndexJoinOnKey(t *testing.T) {
	// Equality on the inner key should work (index nested loop path).
	cat := personDB(t)
	res, err := Run(cat, `retrieve (person.name, cyclist.name) where cyclist.OID = person.OID`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("rows = %d", len(res.Tuples))
	}
}

func TestExecKeyRangeScan(t *testing.T) {
	cat := personDB(t)
	res, err := Run(cat, `retrieve (person.name) where person.OID >= 2 and person.OID <= 3`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names(res, 0)) != "[Mary Paul]" {
		t.Fatalf("got %v", names(res, 0))
	}
}

func TestExecErrors(t *testing.T) {
	cat := personDB(t)
	cases := []string{
		`retrieve (ghost.all)`,                          // unknown relation
		`retrieve (person.ghost)`,                       // unknown attribute
		`retrieve (person.name) where person.age = "x"`, // type mismatch
		`retrieve (person.name) where person.ghost = 1`, // unknown attr in where
		`retrieve (person.name, cyclist.name)`,          // cartesian product
	}
	for _, src := range cases {
		if _, err := Run(cat, src); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
	if _, err := Run(cat, `retrieve (person.name) where person.age = "x"`); !errors.Is(err, ErrExec) {
		t.Fatalf("error not ErrExec: %v", err)
	}
}

func TestKeyRangeExtraction(t *testing.T) {
	cat := personDB(t)
	rel := cat.MustGet("person")
	q, _ := Parse(`retrieve (person.name) where 2 <= person.OID and person.OID < 5 and person.age > 0`)
	lo, hi := keyRange(rel, q.Where)
	if lo != 2 || hi != 4 {
		t.Fatalf("range = [%d,%d], want [2,4]", lo, hi)
	}
	q2, _ := Parse(`retrieve (person.name) where person.OID = 3`)
	lo, hi = keyRange(rel, q2.Where)
	if lo != 3 || hi != 3 {
		t.Fatalf("range = [%d,%d], want [3,3]", lo, hi)
	}
	// Disjunctions must not narrow the range.
	q3, _ := Parse(`retrieve (person.name) where person.OID = 3 or person.age > 0`)
	lo, hi = keyRange(rel, q3.Where)
	if lo != -1<<62 || hi != 1<<62 {
		t.Fatalf("or-range = [%d,%d]", lo, hi)
	}
}

func TestExecHeapRelation(t *testing.T) {
	cat := catalog.New(buffer.New(disk.NewSim(), 16))
	s := tuple.NewSchema(tuple.Field{Name: "k", Kind: tuple.KInt}, tuple.Field{Name: "v", Kind: tuple.KString, Width: 10})
	rel, err := cat.CreateHeap("h", s)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		rec, _ := tuple.Encode(nil, s, tuple.Tuple{tuple.IntVal(i), tuple.StrVal(fmt.Sprintf("v%d", i))})
		if _, err := rel.Heap.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(cat, `retrieve (h.v) where h.k >= 8`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("rows = %d", len(res.Tuples))
	}
}

func TestParseAndEvalNot(t *testing.T) {
	cat := personDB(t)
	res, err := Run(cat, `retrieve (person.name) where not person.age >= 60`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names(res, 0)) != "[Jill Bill Mike]" {
		t.Fatalf("got %v", names(res, 0))
	}
	// Double negation and not over parens.
	res, err = Run(cat, `retrieve (person.name) where not not person.age >= 60`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3 {
		t.Fatalf("double negation rows = %d", len(res.Tuples))
	}
	res, err = Run(cat, `retrieve (person.name) where not (person.age >= 60 or person.age <= 15)`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names(res, 0)) != "[Mike]" {
		t.Fatalf("got %v", names(res, 0))
	}
}

func TestNotDoesNotNarrowKeyRange(t *testing.T) {
	cat := personDB(t)
	rel := cat.MustGet("person")
	q, err := Parse(`retrieve (person.name) where not person.OID <= 3`)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := keyRange(rel, q.Where)
	if lo != -1<<62 || hi != 1<<62 {
		t.Fatalf("not-range narrowed to [%d,%d]", lo, hi)
	}
	// And the query still answers correctly via full scan + filter.
	res, err := Execute(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3 {
		t.Fatalf("rows = %d", len(res.Tuples))
	}
}

func TestResultSources(t *testing.T) {
	cat := personDB(t)
	res, err := Run(cat, `retrieve (person.name) where person.age >= 60`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sources) != len(res.Tuples) {
		t.Fatalf("sources = %d, tuples = %d", len(res.Sources), len(res.Tuples))
	}
	if res.Sources[0].Key != 1 || res.Sources[1].Key != 2 {
		t.Fatalf("sources = %+v", res.Sources)
	}
	// Joins carry no sources.
	res, err = Run(cat, `retrieve (person.name) where person.name = cyclist.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sources) != 0 {
		t.Fatalf("join sources = %d", len(res.Sources))
	}
}

func TestResultSchemaMatchesExecution(t *testing.T) {
	cat := personDB(t)
	q, err := Parse(`retrieve (person.name, person.age) where person.age > 0`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ResultSchema(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(s.Names()) != fmt.Sprint(res.Schema.Names()) {
		t.Fatalf("%v vs %v", s.Names(), res.Schema.Names())
	}
}
