package object

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"corep/internal/tuple"
)

func TestOIDPackUnpack(t *testing.T) {
	o := NewOID(7, 123456)
	if o.Rel() != 7 {
		t.Fatalf("rel = %d", o.Rel())
	}
	if o.Key() != 123456 {
		t.Fatalf("key = %d", o.Key())
	}
	if o.String() != "7:123456" {
		t.Fatalf("string = %q", o.String())
	}
}

func TestOIDExtremes(t *testing.T) {
	o := NewOID(0xFFFF, MaxKey)
	if o.Rel() != 0xFFFF || o.Key() != MaxKey {
		t.Fatalf("extreme OID: rel=%d key=%d", o.Rel(), o.Key())
	}
	z := NewOID(0, 0)
	if z.Rel() != 0 || z.Key() != 0 {
		t.Fatal("zero OID broken")
	}
}

func TestOIDKeyRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on oversized key")
		}
	}()
	NewOID(1, MaxKey+1)
}

func TestOIDRoundTripProperty(t *testing.T) {
	f := func(rel uint16, key int64) bool {
		if key < 0 {
			key = -key
		}
		key &= MaxKey
		o := NewOID(rel, key)
		return o.Rel() == rel && o.Key() == key
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOIDOrderWithinRelation(t *testing.T) {
	// Within one relation, OID order equals key order — B-trees on OID
	// therefore store a relation's tuples in key order.
	a, b := NewOID(3, 10), NewOID(3, 20)
	if !(a < b) {
		t.Fatal("OID order broken within relation")
	}
}

func TestEncodeDecodeOIDs(t *testing.T) {
	in := []OID{NewOID(1, 5), NewOID(2, 99), NewOID(1, 0)}
	raw := EncodeOIDs(in)
	if len(raw) != 24 {
		t.Fatalf("encoded %d bytes", len(raw))
	}
	out, err := DecodeOIDs(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("decoded %d", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("oid %d mismatch", i)
		}
	}
}

func TestDecodeOIDsEmpty(t *testing.T) {
	out, err := DecodeOIDs(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty decode: %v, %v", out, err)
	}
}

func TestDecodeOIDsMalformed(t *testing.T) {
	if _, err := DecodeOIDs(make([]byte, 9)); !errors.Is(err, ErrBadOIDList) {
		t.Fatalf("err = %v", err)
	}
}

// TestAppendOIDs: lists land behind what the destination already holds,
// in its storage when it has room, and a malformed list leaves it alone.
func TestAppendOIDs(t *testing.T) {
	arena := make([]OID, 0, 8)
	first, second := []OID{NewOID(1, 5), NewOID(2, 99)}, []OID{NewOID(1, 0), NewOID(3, 7), NewOID(1, 5)}
	out, err := AppendOIDs(arena, EncodeOIDs(first))
	if err != nil {
		t.Fatal(err)
	}
	if out, err = AppendOIDs(out, EncodeOIDs(second)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out, append(first, second...)) {
		t.Fatalf("appended %v", out)
	}
	if &out[0] != &arena[:1][0] {
		t.Fatal("a destination with room was reallocated")
	}
	bad, err := AppendOIDs(out, make([]byte, 9))
	if !errors.Is(err, ErrBadOIDList) || len(bad) != len(out) {
		t.Fatalf("malformed list: %d OIDs, err = %v", len(bad), err)
	}
	if out, err = AppendOIDs(out, nil); err != nil || len(out) != 5 {
		t.Fatalf("empty list: %d OIDs, err = %v", len(out), err)
	}
}

func TestUnitHashKeyDeterministic(t *testing.T) {
	u := Unit{NewOID(1, 2), NewOID(1, 3)}
	if u.HashKey() != (Unit{NewOID(1, 2), NewOID(1, 3)}).HashKey() {
		t.Fatal("hashkey not deterministic")
	}
}

func TestUnitHashKeyOrderSensitive(t *testing.T) {
	// The key is a function of the concatenation of the OIDs, so member
	// order matters (two different orderings are different units).
	a := Unit{NewOID(1, 2), NewOID(1, 3)}
	b := Unit{NewOID(1, 3), NewOID(1, 2)}
	if a.HashKey() == b.HashKey() {
		t.Fatal("hashkey ignores order")
	}
}

func TestUnitHashKeyCollisionsRare(t *testing.T) {
	seen := map[int64]bool{}
	for i := int64(0); i < 20000; i++ {
		u := Unit{NewOID(1, i), NewOID(1, i*2+1)}
		k := u.HashKey()
		if seen[k] {
			t.Fatalf("collision at %d", i)
		}
		seen[k] = true
	}
}

func TestRepresentationMatrix(t *testing.T) {
	cells := RepresentationMatrix()
	if len(cells) != 9 {
		t.Fatalf("%d cells", len(cells))
	}
	valid := 0
	for _, c := range cells {
		if c.Valid {
			valid++
		}
		// Figure 1 shading rules.
		switch {
		case c.Primary == ValueBased && c.Cached != CacheNone:
			if c.Valid {
				t.Fatalf("value-based with cache %v should be invalid", c.Cached)
			}
		case c.Primary == OIDs && c.Cached == CacheOIDs:
			if c.Valid {
				t.Fatal("OID primary with OID cache should be invalid")
			}
		default:
			if !c.Valid {
				t.Fatalf("cell (%v,%v) should be valid", c.Primary, c.Cached)
			}
		}
		if c.Primary == OIDs && c.Valid && c.Studied == "" {
			t.Fatal("OID column cells are the subject of this paper")
		}
	}
	if valid != 6 {
		t.Fatalf("%d valid cells, want 6", valid)
	}
}

func TestValidPanicsNever(t *testing.T) {
	for p := Primary(0); p < 4; p++ {
		for c := Cached(0); c < 4; c++ {
			_ = Valid(p, c) // must not panic, even out of range
		}
	}
}

func TestNestedRoundTrip(t *testing.T) {
	s := tuple.NewSchema(
		tuple.Field{Name: "OID", Kind: tuple.KInt},
		tuple.Field{Name: "name", Kind: tuple.KString, Width: 20},
		tuple.Field{Name: "age", Kind: tuple.KInt},
	)
	in := []tuple.Tuple{
		{tuple.IntVal(1), tuple.StrVal("John"), tuple.IntVal(62)},
		{tuple.IntVal(2), tuple.StrVal("Mary"), tuple.IntVal(62)},
		{tuple.IntVal(3), tuple.StrVal("Paul"), tuple.IntVal(68)},
	}
	raw, err := EncodeNested(s, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeNested(s, raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("decoded %d tuples", len(out))
	}
	for i := range in {
		for j := range in[i] {
			if !out[i][j].Equal(in[i][j]) {
				t.Fatalf("tuple %d field %d mismatch", i, j)
			}
		}
	}
}

func TestNestedEmpty(t *testing.T) {
	s := tuple.NewSchema(tuple.Field{Name: "k", Kind: tuple.KInt})
	raw, err := EncodeNested(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeNested(s, raw)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty nested: %v, %v", out, err)
	}
}

func TestNestedTruncated(t *testing.T) {
	s := tuple.NewSchema(tuple.Field{Name: "k", Kind: tuple.KInt})
	raw, _ := EncodeNested(s, []tuple.Tuple{{tuple.IntVal(1)}})
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeNested(s, raw[:cut]); err == nil {
			t.Fatalf("cut %d decoded", cut)
		}
	}
	if _, err := DecodeNested(s, append(raw, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestPrimaryCachedStrings(t *testing.T) {
	if Procedural.String() != "procedural" || OIDs.String() != "oid" || ValueBased.String() != "value-based" {
		t.Fatal("primary strings")
	}
	if CacheNone.String() != "none" || CacheOIDs.String() != "oids" || CacheValues.String() != "values" {
		t.Fatal("cached strings")
	}
}

// TestEachNestedWalksInPlace: members come as views into the value, in
// order, and the walk stops at the first error fn returns.
func TestEachNestedWalksInPlace(t *testing.T) {
	s := tuple.NewSchema(tuple.Field{Name: "k", Kind: tuple.KInt}, tuple.Field{Name: "v", Kind: tuple.KString})
	raw, err := EncodeNested(s, []tuple.Tuple{
		{tuple.IntVal(1), tuple.StrVal("one")}, {tuple.IntVal(2), tuple.StrVal("two")}, {tuple.IntVal(3), tuple.StrVal("three")},
	})
	if err != nil {
		t.Fatal(err)
	}
	var keys []int64
	stop := errors.New("stop")
	err = EachNested(raw, func(rec []byte) error {
		if &rec[0] != &raw[cap(raw)-cap(rec)] {
			t.Fatal("member is not a view into the value")
		}
		k, err := tuple.Key(s, rec)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		if k == 2 {
			return stop
		}
		return nil
	})
	if err != stop || len(keys) != 2 || keys[0] != 1 || keys[1] != 2 {
		t.Fatalf("walk visited %v and returned %v", keys, err)
	}
}
