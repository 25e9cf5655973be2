package corep

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"corep/internal/testutil"
	"corep/internal/tuple"
)

// pathsModel is the control of TestPathEntryPointsAgree: plain slices
// holding what every group's members are called, in result order, and
// which groups every shelf holds.
type pathsModel struct {
	groups  [][]string // by grp key - 1
	shelves [][]int    // by shelf key - 1: grp keys
}

func (m *pathsModel) members(lo, hi int) []string {
	var out []string
	for g := lo; g <= hi; g++ {
		out = append(out, m.groups[g-1]...)
	}
	return out
}

func (m *pathsModel) shelved(lo, hi int) []string {
	var out []string
	for s := lo; s <= hi; s++ {
		for _, g := range m.shelves[s-1] {
			out = append(out, m.groups[g-1]...)
		}
	}
	return out
}

const (
	pathsRows    = 1500 // per subobject relation
	pathsGroups  = 24
	pathsShelves = 9
)

// buildPathsDB draws a three-level database from seed. item and part
// rows are padded over many pages. grp g holds its members as an OID
// list within item, an OID list mixing item and part, inline rows or a
// stored query, by g mod 4; grp 1's list is empty. shelf s holds grps as
// an OID list, inline grp rows (each carrying its own members value) or a
// stored query, by s mod 3 — the middle level of shelf.grps.members.name
// takes every representation.
func buildPathsDB(t *testing.T, seed int64, pool int) (*Database, *pathsModel) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := NewDatabase(pool)
	name := func(kind string, k int) string { return fmt.Sprintf("%s-%04d-padding-to-spread-pages", kind, k) }
	mk := func(kind string) (*Relation, []OID) {
		rel, err := db.CreateRelation(kind, IntField("OID"), StrField("name"), IntField("val"))
		if err != nil {
			t.Fatal(err)
		}
		oids := make([]OID, pathsRows+1)
		for k := 1; k <= pathsRows; k++ {
			if oids[k], err = rel.Insert(Row{Int(int64(k)), Str(name(kind, k)), Int(int64(k * 10))}); err != nil {
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
	m := &pathsModel{}
	grpOIDs := make([]OID, pathsGroups+1)
	grpRows := make([]Row, pathsGroups+1) // as stored, for the shelves that hold grps inline
	for g := 1; g <= pathsGroups; g++ {
		n := 1 + rng.Intn(6)
		var c Children
		var names []string
		switch g % 4 {
		case 0, 1:
			var oids []OID
			for j := 0; j < n && g > 1; j++ {
				k := 1 + rng.Intn(pathsRows)
				if g%4 == 0 && rng.Intn(2) == 0 {
					oids, names = append(oids, parts[k]), append(names, name("part", k))
				} else {
					oids, names = append(oids, items[k]), append(names, name("item", k))
				}
			}
			c = OIDChildren(oids...)
		case 2:
			rows := make([]Row, n)
			for j := range rows {
				names = append(names, fmt.Sprintf("inline-%d-%d", g, j))
				rows[j] = Row{Int(int64(j)), Str(names[j]), Int(0)}
			}
			c = ValueChildren(item, rows...)
		case 3:
			lo := 1 + rng.Intn(pathsRows-n)
			for k := lo; k < lo+n; k++ {
				names = append(names, name("part", k))
			}
			c = ProcChildren(fmt.Sprintf(`retrieve (part.name, part.val) where part.OID >= %d and part.OID <= %d`, lo, lo+n-1))
		}
		label := fmt.Sprintf("g%d", g)
		if grpOIDs[g], err = grp.InsertWith(Row{Int(int64(g)), Str(label), Value{}}, map[string]Children{"members": c}); err != nil {
			t.Fatal(err)
		}
		raw, err := c.encode()
		if err != nil {
			t.Fatal(err)
		}
		grpRows[g] = Row{Int(int64(g)), Str(label), tuple.BytesVal(raw)}
		m.groups = append(m.groups, names)
	}
	shelf, err := db.CreateRelation("shelf", IntField("key"), ChildrenField("grps"))
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= pathsShelves; s++ {
		n := 1 + rng.Intn(4)
		var c Children
		var keys []int
		switch s % 3 {
		case 0:
			var oids []OID
			for j := 0; j < n; j++ {
				keys = append(keys, 1+rng.Intn(pathsGroups))
				oids = append(oids, grpOIDs[keys[j]])
			}
			c = OIDChildren(oids...)
		case 1:
			var rows []Row
			for j := 0; j < n; j++ {
				keys = append(keys, 1+rng.Intn(pathsGroups))
				rows = append(rows, grpRows[keys[j]])
			}
			c = ValueChildren(grp, rows...)
		case 2:
			lo := 1 + rng.Intn(pathsGroups-n)
			for g := lo; g < lo+n; g++ {
				keys = append(keys, g)
			}
			c = ProcChildren(fmt.Sprintf(`retrieve (grp.members) where grp.key >= %d and grp.key <= %d`, lo, lo+n-1))
		}
		if _, err := shelf.InsertWith(Row{Int(int64(s)), Value{}}, map[string]Children{"grps": c}); err != nil {
			t.Fatal(err)
		}
		m.shelves = append(m.shelves, keys)
	}
	return db, m
}

// TestPathEntryPointsAgree: one path has one answer. Over a seeded
// database whose groups mix the three representations and whose OID
// lists mix relations, RetrievePath, the same path as a Query,
// RetrievePathN and RetrievePathCached return what the plain-Go model
// holds — as does a three-level path whose middle level is an OID list,
// inline or a stored query — with the cache off and on, before and after
// Reorganize has packed the units the
// retrievals heated. Where every page a retrieval touches fits the pool,
// the forms also read the same pages: after Reorganize a Query finds the
// packed copies RetrievePath finds.
func TestPathEntryPointsAgree(t *testing.T) {
	for _, cfg := range []struct {
		cached bool
		pool   int
	}{
		{pool: 512}, {pool: 8}, {cached: true, pool: 8},
	} {
		t.Run(fmt.Sprintf("cached=%v,pool=%d", cfg.cached, cfg.pool), func(t *testing.T) {
			const seed = 15
			db, m := buildPathsDB(t, seed, cfg.pool)
			if cfg.cached {
				if err := db.EnableCache(16); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.EnableReclustering(0, 0); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			strs := func(vals []Value, err error) ([]string, error) {
				out := make([]string, len(vals))
				for i, v := range vals {
					out[i] = v.Str
				}
				return out, err
			}
			check := func(stage string) {
				t.Helper()
				for round := 0; round < 12; round++ {
					lo := 1 + rng.Intn(pathsGroups)
					hi := lo + rng.Intn(pathsGroups-lo+1)
					slo := 1 + rng.Intn(pathsShelves)
					shi := slo + rng.Intn(pathsShelves-slo+1)
					forms := []struct {
						name string
						want []string
						get  func() ([]Value, error)
					}{
						{"RetrievePath", m.members(lo, hi), func() ([]Value, error) {
							return db.RetrievePath("grp", "members", "name", int64(lo), int64(hi))
						}},
						{"Query", m.members(lo, hi), func() ([]Value, error) {
							return firstColumn(db.Query(fmt.Sprintf(`retrieve (grp.members.name) where grp.key >= %d and grp.key <= %d`, lo, hi)))
						}},
						{"RetrievePathN", m.members(lo, hi), func() ([]Value, error) {
							return db.RetrievePathN("grp", []string{"members", "name"}, int64(lo), int64(hi))
						}},
						{"RetrievePathCached", m.members(lo, hi), func() ([]Value, error) {
							return db.RetrievePathCached("grp", "members", "name", int64(lo), int64(hi))
						}},
						{"RetrievePathCached again", m.members(lo, hi), func() ([]Value, error) {
							return db.RetrievePathCached("grp", "members", "name", int64(lo), int64(hi))
						}},
						{"RetrievePathN, three levels", m.shelved(slo, shi), func() ([]Value, error) {
							return db.RetrievePathN("shelf", []string{"grps", "members", "name"}, int64(slo), int64(shi))
						}},
						{"Query, three levels", m.shelved(slo, shi), func() ([]Value, error) {
							return firstColumn(db.Query(fmt.Sprintf(`retrieve (shelf.grps.members.name) where shelf.key >= %d and shelf.key <= %d`, slo, shi)))
						}},
					}
					for _, f := range forms {
						got, err := strs(f.get())
						if err != nil {
							t.Fatalf("%s: %s over [%d,%d]/[%d,%d]: %v", stage, f.name, lo, hi, slo, shi, err)
						}
						if len(got) != len(f.want) || (len(got) > 0 && !reflect.DeepEqual(got, f.want)) {
							t.Fatalf("%s: %s over [%d,%d]/[%d,%d]:\n got %v\nwant %v", stage, f.name, lo, hi, slo, shi, got, f.want)
						}
						testutil.AssertNoLeaks(t, db.core.Pool)
					}
				}
			}
			check("fresh")
			res, err := db.Reorganize(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			if res.Units == 0 || res.Objects == 0 {
				t.Fatalf("the retrievals heated nothing Reorganize could pack: %+v", res)
			}
			check("reorganized")

			if cfg.cached || cfg.pool < 512 {
				return // reads depend on what the cache holds, the pool evicted
			}
			cold := func(get func() ([]Value, error)) int64 {
				t.Helper()
				if err := db.ResetCold(); err != nil {
					t.Fatal(err)
				}
				if _, err := get(); err != nil {
					t.Fatal(err)
				}
				return db.Stats().Reads
			}
			path := cold(func() ([]Value, error) { return db.RetrievePath("grp", "members", "name", 1, pathsGroups) })
			query := cold(func() ([]Value, error) { return firstColumn(db.Query(`retrieve (grp.members.name)`)) })
			if query > path {
				t.Errorf("after Reorganize the Query form reads %d pages, RetrievePath %d: pql does not see the placements", query, path)
			}
			pathN := cold(func() ([]Value, error) {
				return db.RetrievePathN("shelf", []string{"grps", "members", "name"}, 1, pathsShelves)
			})
			query3 := cold(func() ([]Value, error) { return firstColumn(db.Query(`retrieve (shelf.grps.members.name)`)) })
			if query3 != pathN {
				t.Errorf("three levels after Reorganize: Query reads %d pages, RetrievePathN %d", query3, pathN)
			}
		})
	}
}
