package tuple

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzSchemas are the record shapes the decoder is fuzzed against; the
// first input byte selects one so a single corpus exercises fixed-only,
// variable-only, and mixed layouts.
var fuzzSchemas = []*Schema{
	NewSchema(
		Field{Name: "oid", Kind: KInt},
		Field{Name: "ret1", Kind: KInt},
		Field{Name: "ret2", Kind: KInt},
	),
	NewSchema(
		Field{Name: "oid", Kind: KInt},
		Field{Name: "value", Kind: KString, Width: 16},
		Field{Name: "children", Kind: KBytes},
	),
	NewSchema(
		Field{Name: "dummy", Kind: KString, Width: 8},
		Field{Name: "kids", Kind: KBytes},
	),
	// An integer behind a variable-width field: outside the integer
	// prefix, so it is reached by the walk.
	NewSchema(
		Field{Name: "a", Kind: KInt},
		Field{Name: "b", Kind: KString, Width: 8},
		Field{Name: "c", Kind: KInt},
		Field{Name: "d", Kind: KBytes},
	),
}

// mustEncode builds a seed record for f.Add.
func mustEncode(s *Schema, t Tuple) []byte {
	rec, err := Encode(nil, s, t)
	if err != nil {
		panic(err)
	}
	return rec
}

// FuzzTupleDecode throws arbitrary bytes at the record decoder. Garbage
// must be rejected with ErrDecode-wrapped errors (never a panic or an
// out-of-range slice), and any record that does decode must satisfy the
// codec's round-trip contract: re-encoding reproduces the input bytes
// exactly (the seed figures depend on records being bit-stable), the
// projection path DecodeField agrees with the full Decode on every
// field, Key agrees on the primary key, and EncodedSize matches the
// wire length. Check, the framing walk lazy readers run in Decode's
// place, accepts exactly the records Decode accepts. On every input,
// decodable or not, the single-field readers (DecodeField, FieldBytes,
// Int) accept, refuse and return what the reference walk of
// fieldwalk_test.go does.
func FuzzTupleDecode(f *testing.F) {
	f.Add([]byte{0}, []byte{})
	f.Add([]byte{0}, mustEncode(fuzzSchemas[0], Tuple{IntVal(1), IntVal(-7), IntVal(1 << 40)}))
	f.Add([]byte{1}, mustEncode(fuzzSchemas[1], Tuple{IntVal(42), StrVal("cyclist"), BytesVal([]byte{1, 2, 3})}))
	f.Add([]byte{1}, mustEncode(fuzzSchemas[1], Tuple{IntVal(0), StrVal(""), BytesVal(nil)}))
	f.Add([]byte{2}, mustEncode(fuzzSchemas[2], Tuple{StrVal("a\x00b"), BytesVal(bytes.Repeat([]byte{0xff}, 300))}))
	f.Add([]byte{2}, []byte{2, 0, 'h', 'i', 0xff, 0xff})
	f.Add([]byte{3}, mustEncode(fuzzSchemas[3], Tuple{IntVal(9), StrVal("mid"), IntVal(-9), BytesVal([]byte{7})}))

	f.Fuzz(func(t *testing.T, sel, rec []byte) {
		var which int
		if len(sel) > 0 {
			which = int(sel[0]) % len(fuzzSchemas)
		}
		s := fuzzSchemas[which]
		sameAsWalk(t, s, rec)

		tup, err := Decode(s, rec)
		if cerr := Check(s, rec); (cerr == nil) != (err == nil) {
			t.Fatalf("Check = %v, Decode = %v on %x", cerr, err, rec)
		} else if cerr != nil && !errors.Is(cerr, ErrDecode) {
			t.Fatalf("Check rejected with a foreign error: %v", cerr)
		}
		if err != nil {
			return // malformed input rejected cleanly — that's the contract
		}
		reenc, err := Encode(nil, s, tup)
		if err != nil {
			t.Fatalf("decoded tuple failed to re-encode: %v", err)
		}
		if !bytes.Equal(reenc, rec) {
			t.Fatalf("round trip changed bytes:\n in: %x\nout: %x", rec, reenc)
		}
		if got := EncodedSize(s, tup); got != len(rec) {
			t.Fatalf("EncodedSize = %d, wire length = %d", got, len(rec))
		}
		for i := range s.Fields {
			v, err := DecodeField(s, rec, i)
			if err != nil {
				t.Fatalf("DecodeField(%d) failed on a decodable record: %v", i, err)
			}
			if !v.Equal(tup[i]) {
				t.Fatalf("DecodeField(%d) = %v, Decode gave %v", i, v, tup[i])
			}
		}
		if s.Fields[0].Kind == KInt {
			k, err := Key(s, rec)
			if err != nil {
				t.Fatalf("Key failed on a decodable record: %v", err)
			}
			if k != tup[0].Int {
				t.Fatalf("Key = %d, field 0 = %d", k, tup[0].Int)
			}
		}
	})
}
