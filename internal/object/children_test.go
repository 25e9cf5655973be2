package object

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"corep/internal/tuple"
)

var memberSchema = tuple.NewSchema(
	tuple.Field{Name: "OID", Kind: tuple.KInt},
	tuple.Field{Name: "name", Kind: tuple.KString},
)

// childrenSamples is one value per representation, plus the empty forms.
func childrenSamples(t testing.TB) []Children {
	nested, err := EncodeNested(memberSchema, []tuple.Tuple{
		{tuple.IntVal(1), tuple.StrVal("ann")}, {tuple.IntVal(2), tuple.StrVal("bob")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []Children{
		{Rep: OIDs, OIDs: []OID{NewOID(3, 7), NewOID(4, 1), NewOID(3, MaxKey)}},
		{Rep: OIDs, OIDs: []OID{}},
		{Rep: Procedural, Query: `retrieve (person.name) where person.age >= 60`},
		{Rep: Procedural},
		{Rep: ValueBased, RelID: 0x1234, Nested: nested},
		{Rep: ValueBased, RelID: 1, Nested: []byte{}},
	}
}

func TestChildrenRoundTrip(t *testing.T) {
	for _, c := range childrenSamples(t) {
		raw, err := c.Encode()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		got, err := ParseChildren(raw)
		if err != nil {
			t.Fatalf("%+v: parse: %v", c, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("parsed %+v, encoded %+v", got, c)
		}
	}
	if _, err := (Children{Rep: Primary(9)}).Encode(); err == nil {
		t.Fatal("a value without a representation encoded")
	}
}

// TestParseChildrenRefuses: what no encoder writes is an error that says
// so, never a value of some representation.
func TestParseChildrenRefuses(t *testing.T) {
	for name, raw := range map[string][]byte{
		"empty":           nil,
		"unknown tag":     {'X', 1, 2, 3},
		"value cut short": {TagValue, 1},
	} {
		if _, err := ParseChildren(raw); !errors.Is(err, ErrBadChildren) {
			t.Errorf("%s: err = %v, want ErrBadChildren", name, err)
		}
	}
	if _, err := ParseChildren([]byte{TagOIDs, 1, 2, 3}); !errors.Is(err, ErrBadOIDList) {
		t.Errorf("ragged OID list: err = %v, want ErrBadOIDList", err)
	}
}

// TestParseChildrenNestedIsAView: the inline members are not copied.
func TestParseChildrenNestedIsAView(t *testing.T) {
	raw, err := childrenSamples(t)[4].Encode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseChildren(raw)
	if err != nil {
		t.Fatal(err)
	}
	if &c.Nested[0] != &raw[3] {
		t.Fatal("Nested is not a view into the parsed value")
	}
}

// FuzzParseChildren: arbitrary bytes never panic the parser or the walk
// over what it returns; whatever parses encodes back to the same bytes
// and parses again to the same value; and a damaged member count cannot
// make DecodeNested reserve more than the value could hold.
func FuzzParseChildren(f *testing.F) {
	for _, c := range childrenSamples(f) {
		raw, err := c.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	huge := []byte{TagValue, 1, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(huge[3:], 1<<31)
	f.Add(huge)
	f.Add([]byte{TagOIDs, 1})
	f.Add([]byte{'?'})
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := ParseChildren(raw)
		if err != nil {
			return
		}
		back, err := c.Encode()
		if err != nil {
			t.Fatalf("parsed value does not encode: %v", err)
		}
		if !bytes.Equal(back, raw) {
			t.Fatalf("encode(parse(%x)) = %x", raw, back)
		}
		again, err := ParseChildren(back)
		if err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("parse(encode(%+v)) = %+v, %v", c, again, err)
		}
		if c.Rep != ValueBased {
			return
		}
		members := 0
		walkErr := EachNested(c.Nested, func([]byte) error { members++; return nil })
		rows, err := DecodeNested(memberSchema, c.Nested)
		if err == nil && (walkErr != nil || len(rows) != members) {
			t.Fatalf("decoded %d members, walked %d (%v)", len(rows), members, walkErr)
		}
		if cap(rows) > len(c.Nested)/4 {
			t.Fatalf("reserved %d rows for a %d-byte body", cap(rows), len(c.Nested))
		}
	})
}
