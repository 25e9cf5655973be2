package catalog

import (
	"errors"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/tuple"
)

func newCat() *Catalog {
	return New(buffer.New(disk.NewSim(), 32))
}

func schema() *tuple.Schema {
	return tuple.NewSchema(tuple.Field{Name: "OID", Kind: tuple.KInt})
}

func TestCreateAndGet(t *testing.T) {
	c := newCat()
	r, err := c.CreateBTree("ParentRel", schema())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID == 0 {
		t.Fatal("relation id 0 assigned")
	}
	if r.Tree == nil {
		t.Fatal("btree relation missing tree")
	}
	got, err := c.Get("ParentRel")
	if err != nil || got != r {
		t.Fatalf("get: %v, %v", got, err)
	}
	byID, err := c.ByID(r.ID)
	if err != nil || byID != r {
		t.Fatalf("byID: %v, %v", byID, err)
	}
}

func TestDistinctIDs(t *testing.T) {
	c := newCat()
	a, _ := c.CreateBTree("a", schema())
	b, _ := c.CreateBTree("b", schema())
	h, _ := c.CreateBTree("c", schema())
	if a.ID == b.ID || b.ID == h.ID || a.ID == h.ID {
		t.Fatalf("ids: %d %d %d", a.ID, b.ID, h.ID)
	}
}

func TestDuplicateName(t *testing.T) {
	c := newCat()
	if _, err := c.CreateBTree("x", schema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateBTree("x", schema()); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestUnknownRelation(t *testing.T) {
	c := newCat()
	if _, err := c.Get("nope"); !errors.Is(err, ErrNoRelation) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.ByID(42); !errors.Is(err, ErrNoRelation) {
		t.Fatalf("err = %v", err)
	}
}

func TestMustGetPanics(t *testing.T) {
	c := newCat()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.MustGet("nope")
}

func TestDrop(t *testing.T) {
	c := newCat()
	r, _ := c.CreateBTree("tmp", schema())
	if err := c.Drop("tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("tmp"); !errors.Is(err, ErrNoRelation) {
		t.Fatal("dropped relation still present")
	}
	if _, err := c.ByID(r.ID); !errors.Is(err, ErrNoRelation) {
		t.Fatal("dropped id still present")
	}
	if err := c.Drop("tmp"); !errors.Is(err, ErrNoRelation) {
		t.Fatalf("double drop: %v", err)
	}
	// Name can be reused after drop.
	if _, err := c.CreateBTree("tmp", schema()); err != nil {
		t.Fatal(err)
	}
}
