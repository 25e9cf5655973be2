package corep

import (
	"fmt"
	"sync"
	"testing"

	"corep/internal/object"
	"corep/internal/testutil"
)

// TestFacadeAllocationCeiling: RetrievePath, RetrievePathN, Query and
// Resolve allocate what they return and nothing else, and Update nothing
// it keeps. Warm, over 6 and over 60 groups of one representation — and
// of all three in turn, as the benchmark's object_api lays them out — a
// group costs nothing: its members' strings are staged in the answer's
// one text (a member string each while every value owned its string), a
// stored query is parsed from its page with the names of the last one
// parsed at its depth (its text while it was copied first), and an OID
// list is decoded into the expander's buffer for its depth and probed
// with lent bookkeeping (4 objects more while the list and the batch
// probe's group table, positions and keys were allocated per group). A
// call costs its result: RetrievePath and RetrievePathN the one copy of
// their values and the one text; Query that slab and text, its row
// index, its column names and its QueryResult. The expander, the
// statement's parse, binding and scan and the stored queries' are lent,
// so a lent piece allocated afresh shows as a per-call figure over the
// ceiling (5-29 objects more while they were made per call), and a
// copied children value, a string of its own, a result grown by appends,
// or a stored query parsed and bound afresh per group as a slope over it.
func TestFacadeAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const groups, members = 60, 5
	db := NewDatabase(512)
	person, err := db.CreateRelation("person", IntField("OID"), StrField("name"), IntField("age"))
	if err != nil {
		t.Fatal(err)
	}
	oids := make([]OID, groups*members)
	rows := make([]Row, len(oids))
	for k := range oids {
		rows[k] = Row{Int(int64(k)), Str(fmt.Sprintf("person-%04d", k)), Int(int64(k % 90))}
		if oids[k], err = person.Insert(rows[k]); err != nil {
			t.Fatal(err)
		}
	}
	grp, err := db.CreateRelation("grp", IntField("OID"), StrField("label"), ChildrenField("members"))
	if err != nil {
		t.Fatal(err)
	}
	oidList := func(lo int) Children { return OIDChildren(oids[lo : lo+members]...) }
	stored := func(lo int) Children {
		return ProcChildren(fmt.Sprintf(`retrieve (person.name) where person.OID >= %d and person.OID <= %d`, lo, lo+members-1))
	}
	inline := func(lo int) Children { return ValueChildren(person, rows[lo:lo+members]...) }
	// Groups 0-59 list their members by OID, 100-159 store a query,
	// 200-259 hold them inline, and 300-359 take the three in turn.
	reps := []struct {
		name    string
		base    int64
		kids    func(g int) Children
		resolve float64 // what Resolve allocates for one group
	}{
		{"OID list", 0, func(g int) Children { return oidList(g * members) }, 2},
		{"stored query", 100, func(g int) Children { return stored(g * members) }, 5},
		{"inline", 200, func(g int) Children { return inline(g * members) }, 5},
		{"mixed", 300, func(g int) Children {
			return []func(int) Children{oidList, stored, inline}[g%3](g * members)
		}, 4},
	}
	// Shelf k lists group k by OID: a three-level path reaches every
	// group's members through one more OID list.
	shelf, err := db.CreateRelation("shelf", IntField("OID"), ChildrenField("grps"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		for g := 0; g < groups; g++ {
			key := rep.base + int64(g)
			c := map[string]Children{"members": rep.kids(g)}
			oid, err := grp.InsertWith(Row{Int(key), Str(fmt.Sprintf("g%d", key)), Value{}}, c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := shelf.InsertWith(Row{Int(key), Value{}}, map[string]Children{"grps": OIDChildren(oid)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A form prepares its call over [lo, hi], so the statement's text is
	// built before the count starts.
	forms := []struct {
		name  string
		setUp float64 // per call, whatever the width
		call  func(lo, hi int64) func() (int, error)
	}{
		{"RetrievePath", 2, func(lo, hi int64) func() (int, error) {
			return func() (int, error) {
				vals, err := db.RetrievePath("grp", "members", "name", lo, hi)
				return len(vals), err
			}
		}},
		{"RetrievePathN, three levels", 2, func(lo, hi int64) func() (int, error) {
			attrs := []string{"grps", "members", "name"}
			return func() (int, error) {
				vals, err := db.RetrievePathN("shelf", attrs, lo, hi)
				return len(vals), err
			}
		}},
		{"Query", 5, func(lo, hi int64) func() (int, error) {
			src := fmt.Sprintf(`retrieve (grp.members.name) where grp.OID >= %d and grp.OID <= %d`, lo, hi)
			return func() (int, error) {
				res, err := db.Query(src)
				if err != nil {
					return 0, err
				}
				return len(res.Rows), nil
			}
		}},
	}
	for _, rep := range reps {
		for _, form := range forms {
			allocs := func(n int64) float64 {
				call := form.call(rep.base, rep.base+n-1)
				get := func() {
					if got, err := call(); err != nil || got != int(n)*members {
						t.Fatalf("%s over %d groups of %s: %d values, %v", form.name, n, rep.name, got, err)
					}
				}
				get() // warm: every page in the pool, every pooled buffer grown
				return testing.AllocsPerRun(20, get)
			}
			few, many := allocs(6), allocs(groups)
			slope := (many - few) / (groups - 6)
			fixed := few - 6*slope
			t.Logf("%s over %s: %.1f objects per group, %.1f per call", form.name, rep.name, slope, fixed)
			// Half an object of slack: a result buffer that doubles once
			// more over the wider call reads as a fraction per group; a
			// per-group allocation reads as a whole one, and a per-call
			// one as a whole one more per call.
			if slope > 0.5 || fixed > form.setUp+0.5 {
				t.Errorf("%s over %s groups allocates %.0f objects for 6 groups and %.0f for %d: %.1f per group (ceiling 0), %.1f per call (ceiling %.0f)",
					form.name, rep.name, few, many, groups, slope, fixed, form.setUp)
			}
		}
	}
	// Resolve reads the children value in place and allocates its answer:
	// the Resolved, and an OID list's own copy or the rows' slab, row
	// index, one text and column names (6 objects for an OID list, 21-22
	// for five members while it decoded the whole row and parsed a stored
	// query afresh).
	for _, rep := range reps {
		g := 0
		resolve := func() {
			g = (g + 1) % groups
			res, err := grp.Resolve(rep.base+int64(g), "members")
			if err != nil || len(res.OIDs)+len(res.Rows) != members {
				t.Fatalf("Resolve of %s group %d: %+v, %v", rep.name, g, res, err)
			}
		}
		resolve()
		n := testing.AllocsPerRun(3*groups, resolve)
		t.Logf("Resolve over %s: %.1f objects per call", rep.name, n)
		if n > rep.resolve {
			t.Errorf("Resolve over %s allocates %.1f objects per call (ceiling %.0f)", rep.name, n, rep.resolve)
		}
	}
	// A string predicate compares each row's name where it stands in its
	// record: a Query over 200 rows allocates its own 4 objects and
	// nothing per row (204 while each operand was decoded into a Value).
	byName := func() {
		res, err := db.Query(`retrieve (person.age) where person.OID < 200 and person.name = "person-0007"`)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("Query by name: %+v, %v", res, err)
		}
	}
	byName()
	if n := testing.AllocsPerRun(20, byName); n > 4 {
		t.Errorf("Query by name over 200 rows allocates %.1f objects (ceiling 4)", n)
	}
	// A warm Update reads the old record in place and encodes the new
	// one in a lent buffer: nothing of either is allocated, with children
	// fields to carry over or without (8-9 objects while it decoded the
	// old row and encoded a fresh one).
	for _, u := range []struct {
		rel *Relation
		row func(i int) Row
	}{
		{person, func(i int) Row { return Row{Int(7), Str(fmt.Sprintf("renamed-%d", i%2)), Int(int64(i % 90))} }},
		{grp, func(i int) Row { return Row{Int(301), Str(fmt.Sprintf("g-%d", i%2)), Value{}} }},
	} {
		upd := []Row{u.row(0), u.row(1)}
		i := 0
		update := func() {
			i++
			if err := u.rel.Update(upd[i%2][0].Int, upd[i%2]); err != nil {
				t.Fatal(err)
			}
		}
		update()
		if n := testing.AllocsPerRun(20, update); n > 1 {
			t.Errorf("Update of %s allocates %.1f objects (ceiling 1)", u.rel.rel.Name, n)
		}
	}
	if vals, err := db.RetrievePath("grp", "members", "name", 301, 301); err != nil || len(vals) != members {
		t.Fatalf("updated group's members: %v, %v", vals, err)
	}
	// Over a Reorganized database a path read fetches each placed member
	// from its packed copy, a view under the extent page's pin
	// (Core.ViewPlaced), and the rest of each list through the catalog in
	// the expander's probe memory: with half of 8 groups of 4 placed it
	// allocates the values alone, as the same read over unplaced rows
	// does (17 while each placed record was copied, 37 while each list's
	// unplaced members and their positions were gathered in fresh
	// slices).
	scattered, sgroups := buildScatteredDB(t, Options{BufferPages: 256, Reclustering: true})
	readScattered := func() {
		if vals, err := scattered.RetrievePath("grp", "members", "val", 1, int64(sgroups)); err != nil || len(vals) != 4*sgroups {
			t.Fatalf("RetrievePath over a reorganized database: %d values, %v", len(vals), err)
		}
	}
	readScattered()
	if n := testing.AllocsPerRun(20, readScattered); n > 1 {
		t.Errorf("RetrievePath over unplaced rows allocates %.1f objects (ceiling 1)", n)
	}
	if res, err := scattered.Reorganize(sgroups / 2); err != nil || res.Objects != 2*sgroups {
		t.Fatalf("Reorganize placed %+v, %v; want %d members", res, err, 2*sgroups)
	}
	readScattered()
	if n := testing.AllocsPerRun(20, readScattered); n > 1 {
		t.Errorf("RetrievePath over a reorganized database allocates %.1f objects (ceiling 1)", n)
	}
}

// TestConcurrentPathReadsMatchSerial: a path retrieval keeps nothing
// mutable on the database — each call expands with an expander lent to
// it alone and collects its values in a buffer of its own — so K
// goroutines running RetrievePath, RetrievePathN and Query on one
// database get exactly what one goroutine gets, also when they project
// different attributes through the same relations, meet a stored query
// two levels down, meet a stored query that is itself a path, or walk
// groups laid out like the benchmark's object_api (OID list, stored
// query, inline in turn). Run it under -race.
func TestConcurrentPathReadsMatchSerial(t *testing.T) {
	db := buildMixedDB(t, Options{BufferPages: 64})
	rel := func(name string) *Relation {
		r, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// hall 1 -> shelf 1 -> grps 3, 1, 2: grp 3's stored query is met at
	// depth 2.
	hall, err := db.CreateRelation("hall", IntField("key"), ChildrenField("shelves"))
	if err != nil {
		t.Fatal(err)
	}
	shelves := OIDChildren(object.NewOID(rel("shelf").rel.ID, 1))
	if _, err := hall.InsertWith(Row{Int(1), Value{}}, map[string]Children{"shelves": shelves}); err != nil {
		t.Fatal(err)
	}
	// wing 1's stored query is itself a three-level path, whose own
	// expansion runs while the wing's waits on its rows.
	wing, err := db.CreateRelation("wing", IntField("key"), ChildrenField("rooms"))
	if err != nil {
		t.Fatal(err)
	}
	rooms := ProcChildren(`retrieve (shelf.grps.members.name) where shelf.key = 1`)
	if _, err := wing.InsertWith(Row{Int(1), Value{}}, map[string]Children{"rooms": rooms}); err != nil {
		t.Fatal(err)
	}
	team, err := db.CreateRelation("team", IntField("key"), StrField("label"), ChildrenField("members"))
	if err != nil {
		t.Fatal(err)
	}
	item := rel("item")
	for g := 0; g < 30; g++ {
		lo := 1 + 5*g
		var c Children
		switch g % 3 {
		case 0:
			var oids []OID
			for k := lo; k < lo+5; k++ {
				oids = append(oids, object.NewOID(item.rel.ID, int64(k)))
			}
			c = OIDChildren(oids...)
		case 1:
			c = ProcChildren(fmt.Sprintf(`retrieve (part.name, part.val) where part.OID >= %d and part.OID <= %d`, lo, lo+4))
		case 2:
			var rows []Row
			for k := lo; k < lo+5; k++ {
				rows = append(rows, mixedRow("item", k))
			}
			c = ValueChildren(item, rows...)
		}
		if _, err := team.InsertWith(Row{Int(int64(g)), Str(fmt.Sprintf("t%d", g)), Value{}}, map[string]Children{"members": c}); err != nil {
			t.Fatal(err)
		}
	}
	forms := []struct {
		name string
		get  func() ([]Value, error)
	}{
		{"RetrievePath", func() ([]Value, error) { return db.RetrievePath("grp", "members", "name", 1, 3) }},
		{"Query", func() ([]Value, error) {
			return firstColumn(db.Query(`retrieve (grp.members.name) where grp.key <= 3`))
		}},
		{"RetrievePathN, three levels", func() ([]Value, error) {
			return db.RetrievePathN("shelf", []string{"grps", "members", "name"}, 1, 1)
		}},
		{"Query, join", func() ([]Value, error) {
			return firstColumn(db.Query(`retrieve (part.name, item.name) where item.OID = part.val and part.OID <= 20`))
		}},
		{"RetrievePathN, stored query at depth 2", func() ([]Value, error) {
			return db.RetrievePathN("hall", []string{"shelves", "grps", "members", "val"}, 1, 1)
		}},
		{"Query, stored query at depth 2", func() ([]Value, error) {
			return firstColumn(db.Query(`retrieve (hall.shelves.grps.members.name) where hall.key = 1`))
		}},
		{"RetrievePath, mixed groups", func() ([]Value, error) { return db.RetrievePath("team", "members", "name", 4, 23) }},
		{"RetrievePath, mixed groups, another attribute", func() ([]Value, error) {
			return db.RetrievePath("team", "members", "val", 5, 24)
		}},
		{"Query, mixed groups", func() ([]Value, error) {
			return firstColumn(db.Query(`retrieve (team.members.name) where team.key >= 3 and team.key <= 22`))
		}},
		{"RetrievePath, stored path query", func() ([]Value, error) { return db.RetrievePath("wing", "rooms", "name", 1, 1) }},
		{"Query, stored path query", func() ([]Value, error) {
			return firstColumn(db.Query(`retrieve (wing.rooms.name) where wing.key = 1`))
		}},
	}
	want := make([]string, len(forms))
	for i, f := range forms {
		vals, err := f.get()
		if err != nil || len(vals) == 0 {
			t.Fatalf("%s: %d values, %v", f.name, len(vals), err)
		}
		want[i] = fmt.Sprint(vals)
	}
	// A stored path query nested in a path expands in a lent expander of
	// its own: its rows are the three-level path's values.
	for _, i := range []int{len(forms) - 2, len(forms) - 1} {
		if want[i] != want[2] {
			t.Fatalf("%s = %s, want the stored query's own answer %s", forms[i].name, want[i], want[2])
		}
	}
	const clients, rounds = 4, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(forms)
				vals, err := forms[i].get()
				if err != nil {
					t.Errorf("client %d, %s: %v", c, forms[i].name, err)
					return
				}
				if got := fmt.Sprint(vals); got != want[i] {
					t.Errorf("client %d, %s:\n got %s\nwant %s", c, forms[i].name, got, want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	testutil.AssertNoLeaks(t, db.core.Pool)
}
