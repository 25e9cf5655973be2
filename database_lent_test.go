package corep

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"corep/internal/testutil"
	"corep/internal/tuple"
)

// TestLentStateDoesNotLeakBetweenCalls: RetrievePath, RetrievePathN,
// Query and Resolve run in one object lent for the call (pql's call
// state: the expanders, the statement's scratch, the answer's buffer and
// text), so one call's state is the next call's starting point. The
// subtests check what the call must not carry into the next one, and
// what the next one must not reach of the answers before it.
func TestLentStateDoesNotLeakBetweenCalls(t *testing.T) {
	t.Run("memo, results and failed calls", lentStateOfOneCall)
	t.Run("answer text outlives later calls", answerTextOutlivesLaterCalls)
}

// lentStateOfOneCall: the expander's memo is keyed on a schema pointer:
// a call projecting another attribute of the same relation, or a stored
// query bound where the last one was, finds the last call's pointer
// there, so the memo is reset on every lend. Nothing a Query returns may
// alias its scratch, and a call that fails midway must leave nothing the
// next call sees.
func lentStateOfOneCall(t *testing.T) {
	db := NewDatabase(64)
	person, err := db.CreateRelation("person", IntField("OID"), StrField("name"), IntField("age"))
	if err != nil {
		t.Fatal(err)
	}
	oids := make([]OID, 7)
	rows := make([]Row, 7)
	for k := 1; k <= 6; k++ {
		rows[k] = Row{Int(int64(k)), Str(fmt.Sprintf("p%d", k)), Int(int64(10 * k))}
		if oids[k], err = person.Insert(rows[k]); err != nil {
			t.Fatal(err)
		}
	}
	grp, err := db.CreateRelation("grp", IntField("key"), StrField("label"), ChildrenField("members"))
	if err != nil {
		t.Fatal(err)
	}
	// The two stored queries bind different target lists at depth 0, in
	// different orders; group 4's names an attribute person lacks.
	for key, c := range map[int64]Children{
		1: OIDChildren(oids[1], oids[2]),
		2: ProcChildren(`retrieve (person.name, person.age) where person.OID = 3`),
		3: ProcChildren(`retrieve (person.age, person.name) where person.OID = 4`),
		4: ProcChildren(`retrieve (person.nosuch) where person.OID = 5`),
		5: ValueChildren(person, rows[6]),
		6: OIDChildren(oids[5]),
	} {
		if _, err := grp.InsertWith(Row{Int(key), Str(fmt.Sprintf("g%d", key)), Value{}}, map[string]Children{"members": c}); err != nil {
			t.Fatal(err)
		}
	}
	names := "[p1 p2 p3 p4]"
	ages := "[10 20 30 40]"
	path := func(attr string, lo, hi int64) string {
		t.Helper()
		vals, err := db.RetrievePath("grp", "members", attr, lo, hi)
		if err != nil {
			t.Fatalf("RetrievePath %s over %d-%d: %v", attr, lo, hi, err)
		}
		return fmt.Sprint(vals)
	}
	query := func(src string) *QueryResult {
		t.Helper()
		res, err := db.Query(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return res
	}
	column := func(res *QueryResult) string {
		vals, _ := firstColumn(res, nil)
		return fmt.Sprint(vals)
	}

	// (a) Another attribute along the same path: a call that ends on an
	// OID list of person leaves the memo naming the one attribute's
	// position in person, and the next starts on another such list; the
	// stored queries between bind their target lists in other orders.
	for i := 0; i < 3; i++ {
		for _, c := range []struct{ first, then, want string }{
			{"name", "age", ages}, {"age", "name", names},
		} {
			path(c.first, 5, 6)
			if got := path(c.then, 1, 3); got != c.want {
				t.Fatalf("RetrievePath %s after %s = %s, want %s", c.then, c.first, got, c.want)
			}
			query(`retrieve (grp.members.` + c.first + `) where grp.key >= 5`)
			if got := column(query(`retrieve (grp.members.` + c.then + `) where grp.key <= 3`)); got != c.want {
				t.Fatalf("Query %s after %s = %s, want %s", c.then, c.first, got, c.want)
			}
		}
	}

	// (b) A result outlives the next query, with another target list, run
	// in the same lent scratch.
	a := query(`retrieve (grp.label, grp.members.name) where grp.key <= 3`)
	wantCols := []string{"grp.label", "grp.members.name"}
	wantRows := fmt.Sprint(a.Rows)
	if !reflect.DeepEqual(a.Columns, wantCols) || wantRows != "[(g1, p1) (g1, p2) (g2, p3) (g3, p4)]" {
		t.Fatalf("A = %v %s", a.Columns, wantRows)
	}
	b := query(`retrieve (grp.members.age, grp.key) where grp.key >= 5`)
	if fmt.Sprint(b.Columns, b.Rows) != "[grp.members.age grp.key] [(60, 5) (50, 6)]" {
		t.Fatalf("B = %v %v", b.Columns, b.Rows)
	}
	c := query(`retrieve (person.age, person.name, person.OID) where person.OID >= 5`)
	if fmt.Sprint(c.Columns, c.Rows) != "[person.age person.name person.OID] [(50, p5, 5) (60, p6, 6)]" {
		t.Fatalf("C = %v %v", c.Columns, c.Rows)
	}
	if !reflect.DeepEqual(a.Columns, wantCols) || fmt.Sprint(a.Rows) != wantRows {
		t.Fatalf("A after B and C = %v %v, want %v %s", a.Columns, a.Rows, wantCols, wantRows)
	}

	// (c) A failed call leaves nothing behind: bound midway, a stored
	// query's scan open, an expansion half done, a parse cut short.
	for _, bad := range []func() error{
		func() error { _, err := db.RetrievePath("grp", "members", "name", 1, 6); return err },
		func() error { _, err := db.Query(`retrieve (grp.members.name) where grp.key >= 2`); return err },
		func() error { _, err := db.RetrievePath("grp", "members", "label", 1, 3); return err },
		func() error { _, err := db.Query(`retrieve (grp.members.age, grp.nosuch)`); return err },
		func() error { _, err := db.Query(`retrieve (person.nosuch) where person.OID = 1`); return err },
		func() error { _, err := db.Query(`retrieve (person.name) where`); return err },
	} {
		if err := bad(); err == nil {
			t.Fatal("a call over a missing attribute succeeded")
		}
		if got := path("name", 5, 6); got != "[p6 p5]" {
			t.Fatalf("names after a failed call = %s", got)
		}
		if got := path("age", 1, 3); got != ages {
			t.Fatalf("ages after a failed call = %s, want %s", got, ages)
		}
		res := query(`retrieve (grp.members.name, grp.key) where grp.key >= 5`)
		if fmt.Sprint(res.Columns, res.Rows) != "[grp.members.name grp.key] [(p6, 5) (p5, 6)]" {
			t.Fatalf("Query after a failed call = %v %v", res.Columns, res.Rows)
		}
	}
}

// answerTextOutlivesLaterCalls: the strings of a RetrievePath,
// RetrievePathN, Query or Resolve answer are substrings of one text,
// staged while the call collects in a buffer lent to that call and
// copied out once at its end. Answers over mixed groups — an OID list,
// inline members, a stored query, and the same reached two levels down —
// held while 200 more calls run on the same database (stored queries,
// calls that fail midway, and a concurrent client doing the same) keep
// exactly what deep copies taken at once hold, and no value any call
// returns is still staged.
func answerTextOutlivesLaterCalls(t *testing.T) {
	db := buildMixedDB(t, Options{BufferPages: 64})
	grp, err := db.Relation("grp")
	if err != nil {
		t.Fatal(err)
	}
	cells := func(res *QueryResult, err error) ([]Value, error) {
		if err != nil {
			return nil, err
		}
		var out []Value
		for _, r := range res.Rows {
			out = append(out, r...)
		}
		return out, nil
	}
	resolved := func(key int64) func() ([]Value, error) {
		return func() ([]Value, error) {
			res, err := grp.Resolve(key, "members")
			if err != nil {
				return nil, err
			}
			var out []Value
			for _, r := range res.Rows {
				out = append(out, r...)
			}
			return out, nil
		}
	}
	type form struct {
		name string
		get  func() ([]Value, error)
		ok   bool // whether the call succeeds
	}
	held := []form{
		{"RetrievePath", func() ([]Value, error) { return db.RetrievePath("grp", "members", "name", 1, 3) }, true},
		{"RetrievePathN", func() ([]Value, error) {
			return db.RetrievePathN("shelf", []string{"grps", "members", "name"}, 1, 1)
		}, true},
		{"Query", func() ([]Value, error) {
			return cells(db.Query(`retrieve (grp.label, grp.members.name, grp.key) where grp.key <= 3`))
		}, true},
		{"Resolve, inline", resolved(2), true},
		{"Resolve, stored query", resolved(3), true},
	}
	later := append(held[:len(held):len(held)],
		form{"RetrievePath, another attribute", func() ([]Value, error) { return db.RetrievePath("grp", "members", "val", 1, 3) }, true},
		form{"Query, a stored query's own text", func() ([]Value, error) {
			return cells(db.Query(`retrieve (part.name, part.val) where part.OID >= 200 and part.OID <= 260 and part.val = 2050`))
		}, true},
		form{"Query, stored query only", func() ([]Value, error) {
			return cells(db.Query(`retrieve (grp.members.name, grp.label) where grp.key = 3`))
		}, true},
		form{"RetrievePath, a dangling OID", func() ([]Value, error) { return db.RetrievePath("grp", "members", "name", 1, 4) }, false},
		form{"Query, a dangling OID", func() ([]Value, error) {
			return cells(db.Query(`retrieve (grp.label, grp.members.name) where grp.key >= 2`))
		}, false},
		form{"Query, no such attribute", func() ([]Value, error) {
			return cells(db.Query(`retrieve (grp.members.nosuch) where grp.key <= 3`))
		}, false},
	)
	copyOf := func(vals []Value) []Value {
		out := make([]Value, len(vals))
		for i, v := range vals {
			out[i] = Value{Kind: v.Kind, Int: v.Int, Str: strings.Clone(v.Str), Raw: bytes.Clone(v.Raw)}
		}
		return out
	}
	// call runs f and checks what it returns: nothing staged, and an
	// error exactly where one is due.
	call := func(f form) ([]Value, error) {
		vals, err := f.get()
		if (err == nil) != f.ok {
			return nil, fmt.Errorf("%s: err = %v", f.name, err)
		}
		for i, v := range vals {
			// No value of this database is an empty string.
			if tuple.Staged(v) || v.Kind == tuple.KString && v.Str == "" {
				return nil, fmt.Errorf("%s: value %d is still staged: %+v", f.name, i, v)
			}
		}
		return vals, nil
	}
	answers := make([][]Value, len(held))
	copies := make([][]Value, len(held))
	for i, f := range held {
		vals, err := call(f)
		if err != nil || len(vals) == 0 {
			t.Fatalf("%s: %d values, %v", f.name, len(vals), err)
		}
		answers[i], copies[i] = vals, copyOf(vals)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; ; r++ {
			select {
			case <-done:
				return
			default:
			}
			f := later[r%len(later)]
			if _, err := call(f); err != nil {
				t.Error("concurrent client:", err)
				return
			}
		}
	}()
	for r := 0; r < 200; r++ {
		if _, err := call(later[(r*7)%len(later)]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	for i, f := range held {
		if !reflect.DeepEqual(answers[i], copies[i]) {
			t.Errorf("%s after 200 more calls:\n got %v\nwant %v", f.name, answers[i], copies[i])
		}
		again, err := call(f)
		if err != nil || !reflect.DeepEqual(again, copies[i]) {
			t.Errorf("%s again = %v, %v; first %v", f.name, again, err, copies[i])
		}
	}
	testutil.AssertNoLeaks(t, db.core.Pool)
}

// TestStatementShapeReuse: a stored query or Query statement with the
// shape of the last one run in the same lent scratch — the same tokens
// but for its numbers — keeps that one's parse and binding. Two
// databases with the same relation names take turns, RetrievePath and
// Query alternate over ranges of stored-query, OID-list and inline
// groups, and between the hits come a failed parse, a failed bind and a
// failed run, and the relation the stored queries read is dropped and
// created again under its old name with its columns elsewhere. Every
// answer must be the model's: a binding kept past any of these reads
// the wrong relation, the wrong column or the last statement's tree.
func TestStatementShapeReuse(t *testing.T) {
	const stored, oidLists, groups, bad = 10, 5, 20, 20
	type fixture struct {
		db      *Database
		members [groups][]string
	}
	persons := func(db *Database, prefix string, nameFirst bool) []OID {
		fields := []FieldDef{IntField("OID"), StrField("name"), IntField("age")}
		if nameFirst {
			fields[1], fields[2] = fields[2], fields[1]
		}
		person, err := db.CreateRelation("person", fields...)
		if err != nil {
			t.Fatal(err)
		}
		oids := make([]OID, 4*stored)
		for k := range oids {
			row := Row{Int(int64(k)), Str(fmt.Sprintf("%s%d", prefix, k)), Int(int64(k))}
			if nameFirst {
				row[1], row[2] = row[2], row[1]
			}
			if oids[k], err = person.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		return oids
	}
	build := func(prefix string) *fixture {
		f := &fixture{db: NewDatabase(64)}
		oids := persons(f.db, prefix, false)
		person, _ := f.db.Relation("person")
		grp, err := f.db.CreateRelation("grp", IntField("OID"), ChildrenField("members"))
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g <= bad; g++ {
			var c Children
			keys := []int{(3 * g) % 40, (7*g + 1) % 40, (11*g + 5) % 40}
			switch {
			case g == bad:
				c = ProcChildren("retrieve (person.nosuch) where person.OID >= 0 and person.OID <= 1")
			case g < stored:
				keys = []int{4 * g, 4*g + 1, 4*g + 2, 4*g + 3}
				c = ProcChildren(fmt.Sprintf("retrieve (person.name) where person.OID >= %d and person.OID <= %d", 4*g, 4*g+3))
			case g < stored+oidLists:
				c = OIDChildren(oids[keys[0]], oids[keys[1]], oids[keys[2]])
			default:
				var rows []Row
				for _, k := range keys {
					rows = append(rows, Row{Int(int64(k)), Str(fmt.Sprintf("%s%d", prefix, k)), Int(int64(k))})
				}
				c = ValueChildren(person, rows...)
			}
			if g < groups {
				for _, k := range keys {
					f.members[g] = append(f.members[g], fmt.Sprintf("%s%d", prefix, k))
				}
			}
			if _, err := grp.InsertWith(Row{Int(int64(g)), Value{}}, map[string]Children{"members": c}); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	dbs := []*fixture{build("a"), build("b")}
	want := func(f *fixture, lo, hi int64) string {
		var out []string
		for g := lo; g <= hi; g++ {
			out = append(out, f.members[g]...)
		}
		return fmt.Sprint(out)
	}
	shape := "retrieve (grp.members.name) where grp.OID >= %d and grp.OID <= %d"
	both := func(f *fixture, lo, hi int64) {
		t.Helper()
		vals, err := f.db.RetrievePath("grp", "members", "name", lo, hi)
		if err != nil {
			t.Fatalf("RetrievePath over %d-%d: %v", lo, hi, err)
		}
		if got := fmt.Sprint(vals); got != want(f, lo, hi) {
			t.Fatalf("RetrievePath over %d-%d = %s, want %s", lo, hi, got, want(f, lo, hi))
		}
		col, err := firstColumn(f.db.Query(fmt.Sprintf(shape, lo, hi)))
		if err != nil {
			t.Fatalf("Query over %d-%d: %v", lo, hi, err)
		}
		if got := fmt.Sprint(col); got != want(f, lo, hi) {
			t.Fatalf("Query over %d-%d = %s, want %s", lo, hi, got, want(f, lo, hi))
		}
	}
	fails := []func(f *fixture) error{
		func(f *fixture) error {
			_, err := f.db.Query("retrieve (grp.members.name) where grp.OID >= 1 and grp.OID <=")
			return err
		},
		func(f *fixture) error {
			// Twice, with other constants: a binding that failed midway is
			// no binding to keep.
			const noAttr = "retrieve (grp.nosuch.name) where grp.OID >= %d and grp.OID <= %d"
			if _, err := f.db.Query(fmt.Sprintf(noAttr, 1, 2)); err == nil {
				return nil
			}
			_, err := f.db.Query(fmt.Sprintf(noAttr, 3, 4))
			return err
		},
		func(f *fixture) error { _, err := f.db.Query(fmt.Sprintf(shape, bad-1, bad)); return err },
		func(f *fixture) error { _, err := f.db.RetrievePath("grp", "members", "name", bad-2, bad); return err },
	}
	span := int64(groups)
	for i := 0; i < 120; i++ {
		f := dbs[i%2]
		if i == 60 {
			// Stored queries now read a person whose name is its third
			// column; the OID lists and inline groups name a dropped
			// relation, so only the stored-query groups are asked for.
			if err := dbs[0].db.core.Cat.Drop("person"); err != nil {
				t.Fatal(err)
			}
			persons(dbs[0].db, "c", true)
			for g := 0; g < stored; g++ {
				for j := range dbs[0].members[g] {
					dbs[0].members[g][j] = "c" + dbs[0].members[g][j][1:]
				}
			}
			span = stored
		}
		lo := int64(i*7) % span
		hi := min(lo+int64(i%4), span-1)
		both(f, lo, hi)
		if i%5 == 4 {
			if err := fails[(i/5)%len(fails)](f); err == nil {
				t.Fatalf("failing call %d succeeded", (i/5)%len(fails))
			}
		}
		both(f, hi, hi)
	}
}
