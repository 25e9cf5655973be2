package corep

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"corep/internal/testutil"
	"corep/internal/tuple"
)

// TestRetrievePathValuesSurviveFrameReuse: RetrievePath ranges over the
// parent relation with a leaf pinned and re-enters the pool from the
// callback (Resolve, the member probes) on a pool of a few frames. The
// values it returns — names are strings cut out of pages — must own
// their bytes: junking every frame afterwards changes nothing, and no
// pin is left behind, also when the callback fails midway.
func TestRetrievePathValuesSurviveFrameReuse(t *testing.T) {
	db, groups := buildScatteredDB(t, 6)
	for name, retrieve := range map[string]func() ([]Value, error){
		"RetrievePath": func() ([]Value, error) { return db.RetrievePath("grp", "members", "name", 1, int64(groups)) },
		"Query":        func() ([]Value, error) { return firstColumn(db.Query(`retrieve (grp.members.name)`)) },
	} {
		vals, err := retrieve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		testutil.AssertNoLeaks(t, db.core.Pool)
		if len(vals) != groups*4 {
			t.Fatalf("%s: %d values", name, len(vals))
		}
		want := make([]string, len(vals))
		for i, v := range vals {
			want[i] = fmt.Sprint(v)
		}
		testutil.ScribbleFrames(t, db.core.Pool)
		for i, v := range vals {
			if fmt.Sprint(v) != want[i] {
				t.Fatalf("%s: value %d changed from %s to %v when the frames were overwritten", name, i, want[i], v)
			}
		}
		if got := vals[0].Str; got != "item-0001-padding-to-spread-pages" {
			t.Fatalf("%s: first member = %q", name, got)
		}
	}
	// A callback error (no such attribute) must release the held leaf.
	if _, err := db.RetrievePath("grp", "members", "no-such-attr", 1, int64(groups)); err == nil {
		t.Fatal("bad attribute accepted")
	}
	testutil.AssertNoLeaks(t, db.core.Pool)
}

func firstColumn(res *QueryResult, err error) ([]Value, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Value, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0]
	}
	return out, nil
}

// buildMixedDB is buildScatteredDB with every representation: item and
// part rows spread over many pages of a small pool; grp 1 lists members
// of both relations by OID, scattered; grp 2 holds its members inline;
// grp 3 stores a query; grp 4 lists a member that does not exist after
// two that do. shelf 1 lists grps 1–3 by OID (a two-segment path).
func buildMixedDB(t *testing.T, pool int) *Database {
	t.Helper()
	db := NewDatabase(pool)
	mk := func(name string) (*Relation, []OID) {
		rel, err := db.CreateRelation(name, IntField("OID"), StrField("name"), IntField("val"))
		if err != nil {
			t.Fatal(err)
		}
		oids := make([]OID, 601)
		for k := 1; k <= 600; k++ {
			if oids[k], err = rel.Insert(mixedRow(name, k)); err != nil {
				t.Fatal(err)
			}
		}
		return rel, oids
	}
	item, items := mk("item")
	_, parts := mk("part")
	grp, err := db.CreateRelation("grp", IntField("key"), StrField("label"), ChildrenField("members"))
	if err != nil {
		t.Fatal(err)
	}
	var grps []OID
	for g, c := range []Children{
		OIDChildren(parts[590], items[3], parts[2], items[301], items[599]),
		ValueChildren(item, mixedRow("item", 11), mixedRow("item", 12)),
		ProcChildren(`retrieve (part.name, part.val) where part.OID >= 200 and part.OID <= 260 and part.val = 2050`),
		OIDChildren(items[5], parts[595], OID(items[600]+1)),
	} {
		oid, err := grp.InsertWith(Row{Int(int64(g + 1)), Str(fmt.Sprintf("g%d", g+1)), Value{}}, map[string]Children{"members": c})
		if err != nil {
			t.Fatal(err)
		}
		grps = append(grps, oid)
	}
	shelf, err := db.CreateRelation("shelf", IntField("key"), ChildrenField("grps"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shelf.InsertWith(Row{Int(1), Value{}}, map[string]Children{"grps": OIDChildren(grps[2], grps[0], grps[1])}); err != nil {
		t.Fatal(err)
	}
	return db
}

func mixedRow(kind string, k int) Row {
	return Row{Int(int64(k)), Str(fmt.Sprintf("%s-%04d-padding-to-spread-pages", kind, k)), Int(int64(k * 10))}
}

// TestPathViewsSurviveFrameReuse: path retrieval reads subobjects as
// views into pinned pages — B-tree leaves under a batch, the
// parent's own record for inline members, a stored query's scan — on a
// pool of six frames that recycles each of them many times per call.
// Through RetrievePath, RetrievePathN, RetrievePathCached and Query what
// comes back owns its bytes, the forms agree, and no pin is left — also
// when a member is missing midway.
func TestPathViewsSurviveFrameReuse(t *testing.T) {
	db := buildMixedDB(t, 6)
	want := []string{
		"part-0590", "item-0003", "part-0002", "item-0301", "item-0599", // grp 1, in list order
		"item-0011", "item-0012", // grp 2
		"part-0205", // grp 3
	}
	for name, retrieve := range map[string]func() ([]Value, error){
		"RetrievePath": func() ([]Value, error) { return db.RetrievePath("grp", "members", "name", 1, 3) },
		"Query": func() ([]Value, error) {
			return firstColumn(db.Query(`retrieve (grp.members.name) where grp.key <= 3`))
		},
		"RetrievePathN": func() ([]Value, error) {
			vals, err := db.RetrievePathN("shelf", []string{"grps", "label"}, 1, 1)
			if err != nil || fmt.Sprint(vals) != "[g3 g1 g2]" {
				return nil, fmt.Errorf("labels = %v, %v", vals, err)
			}
			return db.RetrievePathN("grp", []string{"members", "name"}, 1, 3)
		},
		"RetrievePathCached, no cache": func() ([]Value, error) {
			return db.RetrievePathCached("grp", "members", "name", 1, 3)
		},
		"RetrievePathN, three levels": func() ([]Value, error) {
			// shelf 1 lists grps 3, 1, 2: rotate into key order.
			vals, err := db.RetrievePathN("shelf", []string{"grps", "members", "name"}, 1, 1)
			if err != nil || len(vals) != 8 {
				return vals, err
			}
			return append(append([]Value{}, vals[1:]...), vals[0]), nil
		},
		"two segments": func() ([]Value, error) {
			// shelf 1 lists grps 3, 1, 2: rotate into key order.
			vals, err := firstColumn(db.Query(`retrieve (shelf.grps.members.name)`))
			if err != nil || len(vals) != 8 {
				return vals, err
			}
			return append(append([]Value{}, vals[1:]...), vals[0]), nil
		},
		"join": func() ([]Value, error) {
			vals, err := firstColumn(db.Query(`retrieve (part.name, item.name) where item.OID = part.val and part.OID <= 60`))
			if err != nil || len(vals) != 60 || vals[59].Str[:9] != "part-0060" {
				return nil, fmt.Errorf("join: %d rows, %v", len(vals), err)
			}
			return db.RetrievePath("grp", "members", "name", 1, 3)
		},
	} {
		vals, err := retrieve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		testutil.AssertNoLeaks(t, db.core.Pool)
		testutil.ScribbleFrames(t, db.core.Pool)
		if len(vals) != len(want) {
			t.Fatalf("%s: %d values: %v", name, len(vals), vals)
		}
		for i, v := range vals {
			if v.Str != want[i]+"-padding-to-spread-pages" {
				t.Fatalf("%s: value %d = %q after the frames were overwritten, want %s…", name, i, v.Str, want[i])
			}
		}
	}
	// Through the cache — a miss that materializes and inserts, then a
	// hit — the values are decoded copies all the same.
	if err := db.EnableCache(8); err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"miss", "hit"} {
		vals, err := db.RetrievePathCached("grp", "members", "name", 1, 3)
		if err != nil {
			t.Fatalf("RetrievePathCached, cache %s: %v", pass, err)
		}
		testutil.AssertNoLeaks(t, db.core.Pool)
		testutil.ScribbleFrames(t, db.core.Pool)
		if len(vals) != len(want) {
			t.Fatalf("RetrievePathCached, cache %s: %d values: %v", pass, len(vals), vals)
		}
		for i, v := range vals {
			if v.Str != want[i]+"-padding-to-spread-pages" {
				t.Fatalf("RetrievePathCached, cache %s: value %d = %q after the frames were overwritten", pass, i, v.Str)
			}
		}
	}
	// grp 4 lists a member that is not there, after two that are: the
	// leaf under the range cursor and the failed probe's are released.
	if _, err := db.RetrievePath("grp", "members", "name", 1, 4); err == nil {
		t.Fatal("dangling member accepted")
	}
	testutil.AssertNoLeaks(t, db.core.Pool)
	if _, err := db.Query(`retrieve (grp.label, grp.members.val)`); err == nil {
		t.Fatal("dangling member accepted by Query")
	}
	testutil.AssertNoLeaks(t, db.core.Pool)
	if _, err := db.RetrievePath("grp", "members", "label", 2, 3); err == nil {
		t.Fatal("attribute the members lack accepted")
	}
	testutil.AssertNoLeaks(t, db.core.Pool)
}

// TestRetrievePathChecksMemberRecords: RetrievePath projects one
// attribute per member, yet refuses a member record damaged behind that
// attribute, as Fetch's full decode would.
func TestRetrievePathChecksMemberRecords(t *testing.T) {
	db := buildMixedDB(t, 16)
	item, err := db.core.Cat.Get("item")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := item.Tree.Get(301)
	if err != nil {
		t.Fatal(err)
	}
	if err := item.Tree.Update(301, append(rec, 0xEE)); err != nil {
		t.Fatal(err)
	}
	for name, retrieve := range map[string]func() error{
		"RetrievePath":       func() error { _, err := db.RetrievePath("grp", "members", "name", 1, 1); return err },
		"RetrievePathCached": func() error { _, err := db.RetrievePathCached("grp", "members", "name", 1, 1); return err },
		"RetrievePathN":      func() error { _, err := db.RetrievePathN("grp", []string{"members", "name"}, 1, 1); return err },
		"Query":              func() error { _, err := db.Query(`retrieve (grp.members.name) where grp.key = 1`); return err },
		"Fetch":              func() error { _, err := db.Fetch(OID(item.ID)<<48 | 301); return err },
	} {
		if err := retrieve(); !errors.Is(err, tuple.ErrDecode) {
			t.Errorf("%s: err = %v, want tuple.ErrDecode", name, err)
		}
		testutil.AssertNoLeaks(t, db.core.Pool)
	}
}

// TestRetrievePathNamesANonChildrenAttribute: asked to traverse an
// attribute that holds no children, every path entry point says so —
// they used to report the attribute "empty".
func TestRetrievePathNamesANonChildrenAttribute(t *testing.T) {
	db := buildMixedDB(t, 16)
	for name, retrieve := range map[string]func(attr string) error{
		"RetrievePath":       func(a string) error { _, err := db.RetrievePath("grp", a, "name", 1, 3); return err },
		"RetrievePathCached": func(a string) error { _, err := db.RetrievePathCached("grp", a, "name", 1, 3); return err },
		"RetrievePathN":      func(a string) error { _, err := db.RetrievePathN("grp", []string{a, "name"}, 1, 3); return err },
		"RetrievePathN, second level": func(a string) error {
			_, err := db.RetrievePathN("shelf", []string{"grps", a, "name"}, 1, 1)
			return err
		},
	} {
		if err := retrieve("label"); err == nil || !strings.Contains(err.Error(), "grp.label is not a children attribute") {
			t.Errorf("%s over a string attribute: %v", name, err)
		}
		if err := retrieve("nope"); err == nil || !strings.Contains(err.Error(), `no attribute "nope"`) {
			t.Errorf("%s over an unknown attribute: %v", name, err)
		}
		testutil.AssertNoLeaks(t, db.core.Pool)
	}
}
