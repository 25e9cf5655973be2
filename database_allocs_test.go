package corep

import (
	"fmt"
	"sync"
	"testing"

	"corep/internal/testutil"
)

// TestFacadeAllocationCeiling: RetrievePath and Query allocate for what
// they return and for a fixed set-up, not for what they pass over. Warm,
// over 6 and over 60 groups of one representation, a group may cost its
// members' strings and, for a stored query, its text; an OID list is
// decoded into the expander's buffer for its depth and probed with
// lent bookkeeping, so it costs nothing more (4 objects more while the
// list and the batch probe's group table, positions and keys were
// allocated per group). The set-up must not grow with the group count.
// A copied children value, a result grown by appends, or a stored query
// parsed and bound afresh per group shows here as a slope above the
// ceiling.
func TestFacadeAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		groups, members = 60, 5
		setUp           = 30 // per call, whatever the width
	)
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
	// Groups 0-59 list their members by OID, 100-159 store a query,
	// 200-259 hold them inline.
	reps := []struct {
		name     string
		base     int64
		perGroup float64 // beyond the members' strings
		kids     func(lo int) Children
	}{
		{"OID list", 0, 0, func(lo int) Children { return OIDChildren(oids[lo : lo+members]...) }},
		{"stored query", 100, 1, func(lo int) Children {
			return ProcChildren(fmt.Sprintf(`retrieve (person.name) where person.OID >= %d and person.OID <= %d`, lo, lo+members-1))
		}},
		{"inline", 200, 0, func(lo int) Children { return ValueChildren(person, rows[lo:lo+members]...) }},
	}
	for _, rep := range reps {
		for g := 0; g < groups; g++ {
			key := rep.base + int64(g)
			c := map[string]Children{"members": rep.kids(g * members)}
			if _, err := grp.InsertWith(Row{Int(key), Str(fmt.Sprintf("g%d", key)), Value{}}, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	forms := []struct {
		name string
		get  func(lo, hi int64) (int, error)
	}{
		{"RetrievePath", func(lo, hi int64) (int, error) {
			vals, err := db.RetrievePath("grp", "members", "name", lo, hi)
			return len(vals), err
		}},
		{"Query", func(lo, hi int64) (int, error) {
			res, err := db.Query(fmt.Sprintf(`retrieve (grp.members.name) where grp.OID >= %d and grp.OID <= %d`, lo, hi))
			if err != nil {
				return 0, err
			}
			return len(res.Rows), nil
		}},
	}
	for _, rep := range reps {
		for _, form := range forms {
			allocs := func(n int64) float64 {
				get := func() {
					if got, err := form.get(rep.base, rep.base+n-1); err != nil || got != int(n)*members {
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
			// per-group allocation reads as a whole one.
			if slope > members+rep.perGroup+0.5 || fixed > setUp {
				t.Errorf("%s over %s groups allocates %.0f objects for 6 groups and %.0f for %d: %.1f per group (ceiling %.0f), %.1f per call (ceiling %d)",
					form.name, rep.name, few, many, groups, slope, members+rep.perGroup, fixed, setUp)
			}
		}
	}
}

// TestConcurrentPathReadsMatchSerial: a path retrieval keeps nothing
// mutable on the database — each call expands in scratch of its own and
// collects its values in a buffer of its own — so K goroutines running
// RetrievePath, RetrievePathN and Query on one database get exactly what
// one goroutine gets. Run it under -race.
func TestConcurrentPathReadsMatchSerial(t *testing.T) {
	db := buildMixedDB(t, Options{BufferPages: 64})
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
	}
	want := make([]string, len(forms))
	for i, f := range forms {
		vals, err := f.get()
		if err != nil || len(vals) == 0 {
			t.Fatalf("%s: %d values, %v", f.name, len(vals), err)
		}
		want[i] = fmt.Sprint(vals)
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
