package corep

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// checkOneRowPerKey is the façade's invariant that an OID names one
// object: every relation's B-tree holds each key once, in order.
func checkOneRowPerKey(t *testing.T, db *Database) {
	t.Helper()
	for name, r := range db.rels {
		rel := r.rel
		if err := rel.Tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		it, err := rel.Tree.SeekFirst()
		if err != nil {
			t.Fatal(err)
		}
		prev, first := int64(0), true
		for {
			k, _, ok, err := it.Next()
			if err != nil {
				it.Close()
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if !first && k == prev {
				it.Close()
				t.Fatalf("%s holds key %d twice", name, k)
			}
			prev, first = k, false
		}
		it.Close()
	}
}

// TestInsertRefusesDuplicateKey: a second row under a key its relation
// holds is refused with ErrDuplicateKey — plain, under versioned
// serving, and on a file-backed database before and after a reopen — and
// nothing is written: the row count, Get, Query and RetrievePath read
// what they read before the refused insert.
func TestInsertRefusesDuplicateKey(t *testing.T) {
	const people = 200 // several leaves: key people/2 is not in the first
	configs := []struct {
		name   string
		opts   func(dir string) Options
		reopen bool
	}{
		{"plain", func(string) Options { return Options{BufferPages: 16} }, false},
		{"versioned", func(string) Options { return Options{BufferPages: 16, Versioned: true} }, false},
		{"cached", func(string) Options { return Options{BufferPages: 16, CacheUnits: 4} }, false},
		{"file", func(dir string) Options { return Options{Path: filepath.Join(dir, "db"), BufferPages: 16} }, true},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			opts := c.opts(t.TempDir())
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			person, err := db.CreateRelation("person", IntField("OID"), StrField("name"))
			if err != nil {
				t.Fatal(err)
			}
			var oids []OID
			for k := int64(1); k <= people; k++ {
				oid, err := person.Insert(Row{Int(k), Str(fmt.Sprintf("p%d", k))})
				if err != nil {
					t.Fatal(err)
				}
				oids = append(oids, oid)
			}
			grp, err := db.CreateRelation("grp", IntField("OID"), ChildrenField("members"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := grp.InsertWith(Row{Int(1), Value{}}, map[string]Children{"members": OIDChildren(oids[:3]...)}); err != nil {
				t.Fatal(err)
			}

			// refused inserts a second row under keys 1, people/2 and
			// people (the first, a middle and the last key) and a second
			// group 1, and checks that the trees did not move and every
			// read still sees one row each, n people in all.
			refused := func(db *Database, n int) {
				t.Helper()
				person, err := db.Relation("person")
				if err != nil {
					t.Fatal(err)
				}
				grp, err := db.Relation("grp")
				if err != nil {
					t.Fatal(err)
				}
				states := func() (s [2]any) {
					for i, name := range []string{"person", "grp"} {
						rel, err := db.core.Cat.Get(name)
						if err != nil {
							t.Fatal(err)
						}
						s[i] = rel.Tree.State()
					}
					return s
				}
				before := states()
				for _, k := range []int64{1, people / 2, people} {
					if _, err := person.Insert(Row{Int(k), Str("impostor")}); !errors.Is(err, ErrDuplicateKey) {
						t.Fatalf("second insert of key %d: %v, want ErrDuplicateKey", k, err)
					}
				}
				if _, err := grp.InsertWith(Row{Int(1), Value{}}, map[string]Children{"members": OIDChildren(oids[3:6]...)}); !errors.Is(err, ErrDuplicateKey) {
					t.Fatalf("second insert of group 1: %v, want ErrDuplicateKey", err)
				}
				if after := states(); after != before {
					t.Fatalf("refused inserts moved the trees: %v, was %v", after, before)
				}
				checkOneRowPerKey(t, db)
				res, err := db.Query(`retrieve (person.name)`)
				if err != nil || len(res.Rows) != n {
					t.Fatalf("Query: %d rows, %v; want %d", len(res.Rows), err, n)
				}
				for _, k := range []int64{1, people / 2, people} {
					row, err := person.Get(k)
					if err != nil || row[1].Str != fmt.Sprintf("p%d", k) {
						t.Fatalf("Get(%d) = %v, %v", k, row, err)
					}
				}
				res, err = db.Query(`retrieve (person.name) where person.OID = 1`)
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != "p1" {
					t.Fatalf("Query for key 1: %v, %v", res, err)
				}
				vals, err := db.RetrievePath("grp", "members", "name", 1, 1)
				if err != nil || fmt.Sprint(vals) != fmt.Sprint([]Value{Str("p1"), Str("p2"), Str("p3")}) {
					t.Fatalf("RetrievePath: %v, %v; want group 1's first members", vals, err)
				}
			}
			refused(db, people)
			// A key that is new still goes in after a refusal.
			if _, err := person.Insert(Row{Int(people + 1), Str("late")}); err != nil {
				t.Fatal(err)
			}
			if _, err := person.Insert(Row{Int(people + 1), Str("later")}); !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("second insert of a key added after a refusal: %v", err)
			}
			checkOneRowPerKey(t, db)
			if !c.reopen {
				return
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			refused(db, people+1)
			person, err = db.Relation("person")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := person.Insert(Row{Int(people + 1), Str("again")}); !errors.Is(err, ErrDuplicateKey) {
				t.Fatalf("after reopen: %v, want ErrDuplicateKey", err)
			}
			if row, err := person.Get(people + 1); err != nil || row[1].Str != "late" {
				t.Fatalf("after reopen Get(%d) = %v, %v", people+1, row, err)
			}
		})
	}
}
