package tuple

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// walkField is the reference the single-field readers are held to: the
// field-by-field walk DecodeField was before the integer prefix, kept
// here unchanged in what it accepts. It returns the byte range of field
// idx in rec, or ok == false where the walk refused the record (a field
// up to and including idx does not fit, or idx names no field).
func walkField(s *Schema, rec []byte, idx int) (off, end int, ok bool) {
	for i, f := range s.Fields {
		switch f.Kind {
		case KInt:
			if off+8 > len(rec) {
				return 0, 0, false
			}
			end = off + 8
		default:
			if off+2 > len(rec) {
				return 0, 0, false
			}
			n := int(binary.LittleEndian.Uint16(rec[off:]))
			off += 2
			if off+n > len(rec) {
				return 0, 0, false
			}
			end = off + n
		}
		if i == idx {
			return off, end, true
		}
		off = end
	}
	return 0, 0, false
}

// sameAsWalk holds DecodeField, FieldBytes and Int to the reference walk
// on rec, for every field index and one on either side.
func sameAsWalk(t *testing.T, s *Schema, rec []byte) {
	t.Helper()
	for idx := -1; idx <= len(s.Fields); idx++ {
		off, end, ok := walkField(s, rec, idx)

		v, err := DecodeField(s, rec, idx)
		view, verr := FieldBytes(s, rec, idx)
		n, nerr := Int(s, rec, idx)
		if (err == nil) != ok || (verr == nil) != ok {
			t.Fatalf("field %d of %x: walk ok=%v, DecodeField err=%v, FieldBytes err=%v", idx, rec, ok, err, verr)
		}
		if !ok {
			if !errors.Is(err, ErrDecode) || !errors.Is(verr, ErrDecode) || !errors.Is(nerr, ErrDecode) {
				t.Fatalf("field %d of %x refused with foreign errors: %v / %v / %v", idx, rec, err, verr, nerr)
			}
			continue
		}

		body := rec[off:end]
		if !bytes.Equal(view, body) {
			t.Fatalf("field %d of %x: FieldBytes = %x, walk = %x", idx, rec, view, body)
		}
		if cap(view) != len(view) {
			t.Fatalf("field %d: view has cap %d over len %d — an append would write into the record", idx, cap(view), len(view))
		}
		if len(view) > 0 && &view[0] != &rec[off] {
			t.Fatalf("field %d: FieldBytes copied", idx)
		}
		switch kind := s.Fields[idx].Kind; kind {
		case KInt:
			want := int64(binary.LittleEndian.Uint64(body))
			if v.Kind != KInt || v.Int != want || nerr != nil || n != want {
				t.Fatalf("field %d of %x: DecodeField = %v, Int = %d (%v), walk = %d", idx, rec, v, n, nerr, want)
			}
		default:
			if nerr == nil {
				t.Fatalf("field %d: Int read a %v field as %d", idx, kind, n)
			}
			if !v.Equal(Value{Kind: kind, Str: string(body), Raw: body}) {
				t.Fatalf("field %d of %x: DecodeField = %v, walk = %x", idx, rec, v, body)
			}
			if kind == KBytes && len(body) > 0 && &v.Raw[0] == &rec[off] {
				t.Fatalf("field %d: DecodeField's bytes alias the record", idx)
			}
		}
	}
}

// walkSchemas are the record shapes the repository builds — the
// workload's Parent/ValueBased, Child and Cluster relations, the
// benchmark's person, and among the fuzz shapes its grp and the mixed
// int, string, int, bytes — plus two chosen for the prefix rule:
// integers behind a leading string, and no field at all.
var walkSchemas = append([]*Schema{
	NewSchema(
		Field{Name: "OID", Kind: KInt}, Field{Name: "ret1", Kind: KInt}, Field{Name: "ret2", Kind: KInt}, Field{Name: "ret3", Kind: KInt},
		Field{Name: "dummy", Kind: KString, Width: 200}, Field{Name: "children", Kind: KBytes}),
	childSchema(),
	NewSchema(
		Field{Name: "cluster#", Kind: KInt}, Field{Name: "OID", Kind: KInt},
		Field{Name: "ret1", Kind: KInt}, Field{Name: "ret2", Kind: KInt}, Field{Name: "ret3", Kind: KInt},
		Field{Name: "dummy", Kind: KString, Width: 100}, Field{Name: "children", Kind: KBytes}),
	NewSchema(Field{Name: "OID", Kind: KInt}, Field{Name: "name", Kind: KString}, Field{Name: "age", Kind: KInt}),
	NewSchema(Field{Name: "s", Kind: KString}, Field{Name: "n", Kind: KInt}, Field{Name: "m", Kind: KInt}),
	NewSchema(),
}, fuzzSchemas...)

// sampleTuple fills s with values that make every byte of the record
// distinct enough to tell fields apart.
func sampleTuple(s *Schema) Tuple {
	tup := make(Tuple, len(s.Fields))
	for i, f := range s.Fields {
		switch f.Kind {
		case KInt:
			tup[i] = IntVal(int64(i+1)*0x0101010101010101 - 7)
		case KString:
			tup[i] = StrVal("field-" + f.Name)
		default:
			tup[i] = BytesVal(bytes.Repeat([]byte{byte(0xA0 + i)}, 8*(i%3)))
		}
	}
	return tup
}

// TestFieldReadersAreTheWalk: the integer-prefix path accepts, refuses
// and returns exactly what the walk does — on a valid record of every
// shape, on every truncation of it, and with bytes trailing it.
func TestFieldReadersAreTheWalk(t *testing.T) {
	for _, s := range walkSchemas {
		rec := mustEncode(s, sampleTuple(s))
		for cut := 0; cut <= len(rec); cut++ {
			sameAsWalk(t, s, rec[:cut:cut])
		}
		sameAsWalk(t, s, append(append([]byte(nil), rec...), 0xEE, 0xEE, 0xEE))
	}
}

func TestIntPrefixCount(t *testing.T) {
	for i, want := range []int{4, 4, 5, 1, 0, 0, 3, 1, 0, 1} {
		if got := walkSchemas[i].intPrefix; got != want {
			t.Errorf("schema %d %v: integer prefix %d, want %d", i, walkSchemas[i].Names(), got, want)
		}
	}
}
