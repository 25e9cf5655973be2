package tuple

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func childSchema() *Schema {
	return NewSchema(
		Field{Name: "OID", Kind: KInt},
		Field{Name: "ret1", Kind: KInt},
		Field{Name: "ret2", Kind: KInt},
		Field{Name: "ret3", Kind: KInt},
		Field{Name: "dummy", Kind: KString, Width: 60},
	)
}

func TestSchemaIndex(t *testing.T) {
	s := childSchema()
	if s.Index("ret2") != 2 {
		t.Fatalf("ret2 at %d", s.Index("ret2"))
	}
	if s.Index("nope") != -1 {
		t.Fatal("unknown field found")
	}
	if got := s.MustIndex("dummy"); got != 4 {
		t.Fatalf("dummy at %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex on unknown did not panic")
		}
	}()
	s.MustIndex("nope")
}

func TestDuplicateFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate field")
		}
	}()
	NewSchema(Field{Name: "a", Kind: KInt}, Field{Name: "a", Kind: KInt})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := childSchema()
	tp := Tuple{IntVal(42), IntVal(-7), IntVal(0), IntVal(1 << 40), StrVal("hello")}
	rec, err := Encode(nil, s, tp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(s, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tp {
		if !got[i].Equal(tp[i]) {
			t.Fatalf("field %d = %v, want %v", i, got[i], tp[i])
		}
	}
}

func TestEncodeBytesField(t *testing.T) {
	s := NewSchema(Field{Name: "OID", Kind: KInt}, Field{Name: "children", Kind: KBytes})
	raw := []byte{1, 2, 3, 0, 255}
	rec, err := Encode(nil, s, Tuple{IntVal(9), BytesVal(raw)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(s, rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[1].Raw) != string(raw) {
		t.Fatalf("raw = %v", got[1].Raw)
	}
	// Decode must copy: mutating rec must not change the decoded value.
	rec[len(rec)-1] = 0
	if got[1].Raw[4] != 255 {
		t.Fatal("decoded bytes alias the record")
	}
}

func TestEncodeArityMismatch(t *testing.T) {
	s := childSchema()
	if _, err := Encode(nil, s, Tuple{IntVal(1)}); err == nil {
		t.Fatal("no error on arity mismatch")
	}
}

func TestEncodeKindMismatch(t *testing.T) {
	s := NewSchema(Field{Name: "a", Kind: KInt})
	if _, err := Encode(nil, s, Tuple{StrVal("x")}); err == nil {
		t.Fatal("no error on kind mismatch")
	}
}

func TestDecodeTruncated(t *testing.T) {
	s := childSchema()
	tp := Tuple{IntVal(1), IntVal(2), IntVal(3), IntVal(4), StrVal("abc")}
	rec, _ := Encode(nil, s, tp)
	for cut := 1; cut < len(rec); cut++ {
		if _, err := Decode(s, rec[:cut]); !errors.Is(err, ErrDecode) {
			t.Fatalf("cut=%d: err = %v, want ErrDecode", cut, err)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	s := NewSchema(Field{Name: "a", Kind: KInt})
	rec, _ := Encode(nil, s, Tuple{IntVal(1)})
	rec = append(rec, 0xFF)
	if _, err := Decode(s, rec); !errors.Is(err, ErrDecode) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeField(t *testing.T) {
	s := childSchema()
	tp := Tuple{IntVal(10), IntVal(20), IntVal(30), IntVal(40), StrVal("pad")}
	rec, _ := Encode(nil, s, tp)
	for i := range tp {
		got, err := DecodeField(s, rec, i)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(tp[i]) {
			t.Fatalf("field %d = %v, want %v", i, got, tp[i])
		}
	}
	if _, err := DecodeField(s, rec, 9); err == nil {
		t.Fatal("no error for out-of-range field")
	}
}

func TestKey(t *testing.T) {
	s := childSchema()
	rec, _ := Encode(nil, s, Tuple{IntVal(777), IntVal(0), IntVal(0), IntVal(0), StrVal("")})
	k, err := Key(s, rec)
	if err != nil {
		t.Fatal(err)
	}
	if k != 777 {
		t.Fatalf("key = %d", k)
	}
	bad := NewSchema(Field{Name: "s", Kind: KString})
	if _, err := Key(bad, rec); err == nil {
		t.Fatal("Key on string-keyed schema should fail")
	}
}

func TestEncodedSize(t *testing.T) {
	s := childSchema()
	tp := Tuple{IntVal(1), IntVal(2), IntVal(3), IntVal(4), StrVal("abcdef")}
	rec, _ := Encode(nil, s, tp)
	if got := EncodedSize(s, tp); got != len(rec) {
		t.Fatalf("EncodedSize = %d, len = %d", got, len(rec))
	}
}

func TestBlankCompressionEffect(t *testing.T) {
	// The declared width does not inflate the record: short strings
	// produce short records (the INGRES blank-compression analogue).
	s := NewSchema(Field{Name: "k", Kind: KInt}, Field{Name: "dummy", Kind: KString, Width: 100})
	small, _ := Encode(nil, s, Tuple{IntVal(1), StrVal("ab")})
	big, _ := Encode(nil, s, Tuple{IntVal(1), StrVal(strings.Repeat("x", 100))})
	if len(small) >= len(big) {
		t.Fatalf("small=%d big=%d", len(small), len(big))
	}
	if len(small) != 8+2+2 {
		t.Fatalf("small = %d bytes", len(small))
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntVal(1), IntVal(2), -1},
		{IntVal(2), IntVal(2), 0},
		{IntVal(3), IntVal(2), 1},
		{StrVal("a"), StrVal("b"), -1},
		{StrVal("b"), StrVal("b"), 0},
		{BytesVal([]byte{2}), BytesVal([]byte{1}), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Fatalf("%v cmp %v = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueEqualKinds(t *testing.T) {
	if IntVal(1).Equal(StrVal("1")) {
		t.Fatal("cross-kind equality")
	}
}

func TestRoundTripProperty(t *testing.T) {
	s := NewSchema(
		Field{Name: "k", Kind: KInt},
		Field{Name: "s", Kind: KString, Width: 50},
		Field{Name: "b", Kind: KBytes},
		Field{Name: "v", Kind: KInt},
	)
	f := func(k, v int64, str string, raw []byte) bool {
		if len(str) > 1000 {
			str = str[:1000]
		}
		if len(raw) > 1000 {
			raw = raw[:1000]
		}
		tp := Tuple{IntVal(k), StrVal(str), BytesVal(raw), IntVal(v)}
		rec, err := Encode(nil, s, tp)
		if err != nil {
			return false
		}
		got, err := Decode(s, rec)
		if err != nil {
			return false
		}
		for i := range tp {
			if !got[i].Equal(tp[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFieldMatchesDecodeProperty(t *testing.T) {
	s := childSchema()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		tp := Tuple{IntVal(rng.Int63()), IntVal(rng.Int63()), IntVal(rng.Int63()),
			IntVal(rng.Int63()), StrVal(strings.Repeat("z", rng.Intn(60)))}
		rec, err := Encode(nil, s, tp)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Decode(s, rec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tp {
			one, err := DecodeField(s, rec, i)
			if err != nil {
				t.Fatal(err)
			}
			if !one.Equal(full[i]) {
				t.Fatalf("trial %d field %d: %v != %v", trial, i, one, full[i])
			}
		}
	}
}

func TestTupleString(t *testing.T) {
	tp := Tuple{IntVal(1), StrVal("x"), BytesVal([]byte{0xAB})}
	if got := tp.String(); got != "(1, x, 0xab)" {
		t.Fatalf("string = %q", got)
	}
}

// TestCheckSeesWhatDecodeFieldSkips: DecodeField stops at the field it
// wants; Check is what notices damage behind it, with Decode's verdict.
func TestCheckSeesWhatDecodeFieldSkips(t *testing.T) {
	s := NewSchema(
		Field{Name: "oid", Kind: KInt},
		Field{Name: "name", Kind: KString, Width: 8},
		Field{Name: "kids", Kind: KBytes},
		Field{Name: "n", Kind: KInt},
	)
	rec, err := Encode(nil, s, Tuple{IntVal(7), StrVal("seven"), BytesVal([]byte{1, 2, 3}), IntVal(-1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(s, rec); err != nil {
		t.Fatalf("Check refuses a sound record: %v", err)
	}
	for cut := 0; cut <= len(rec)+1; cut++ {
		bad := append(append([]byte(nil), rec...), 0xEE)[:cut]
		_, derr := Decode(s, bad)
		cerr := Check(s, bad)
		if (derr == nil) != (cerr == nil) || (cerr != nil && !errors.Is(cerr, ErrDecode)) {
			t.Fatalf("cut at %d: Check = %v, Decode = %v", cut, cerr, derr)
		}
		if cut > 8+2+5 && cut != len(rec) {
			if v, err := DecodeField(s, bad, 1); err != nil || v.Str != "seven" {
				t.Fatalf("cut at %d: name reads %v, %v", cut, v, err)
			}
			if cerr == nil {
				t.Fatalf("cut at %d: damage behind name not noticed", cut)
			}
		}
	}
}

func TestSchemaLookup(t *testing.T) {
	s := NewSchema(
		Field{Name: "person.OID", Kind: KInt},
		Field{Name: "person.name", Kind: KString},
		Field{Name: "nickname", Kind: KString},
		Field{Name: "name", Kind: KString},
	)
	for attr, want := range map[string]int{
		"OID": 0, "person.OID": 0, "name": 3, "person.name": 1, "nickname": 2,
		"ame": -1, "n.name": -1, "": -1, "person": -1, ".name": -1,
	} {
		if got := s.Lookup(attr); got != want {
			t.Errorf("Lookup(%q) = %d, want %d", attr, got, want)
		}
	}
	if !Named("rel.attr", "attr") || !Named("attr", "attr") || Named("relattr", "attr") || Named("attr", "rel.attr") {
		t.Error("Named: attr answers to attr and rel.attr only")
	}
}
