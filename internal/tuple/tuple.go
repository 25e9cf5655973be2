// Package tuple defines relation schemas and the record codec.
//
// The paper's relations mix integer fields (ret1..ret3, OID, cluster#,
// hashkey) with character fields whose blanks are "compressed" so that
// records are variable length (§4: dummy, children, value). We reproduce
// that with a codec where integers are fixed 8-byte fields and character
// / byte fields are length-prefixed, giving variable-length records with
// a fixed declared width, exactly the effect of INGRES blank compression.
package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Kind enumerates field types.
type Kind uint8

// Field kinds.
const (
	KInt    Kind = iota // 64-bit signed integer
	KString             // character field, blank-compressed (variable length)
	KBytes              // raw byte field, variable length (e.g. encoded OID lists)
)

func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KString:
		return "char"
	case KBytes:
		return "bytes"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Field describes one attribute of a relation.
type Field struct {
	Name string
	Kind Kind
	// Width is the declared width of a character field. Encoding stores
	// only the used prefix (blank compression); Width documents intent
	// and bounds generated values.
	Width int
}

// Schema is an ordered list of fields. The first field is by convention
// the primary key in this reproduction (OID or hashkey). Names are found
// by a scan of Fields: a schema here has a handful of fields, and a map
// would cost more to build than every lookup it could save.
type Schema struct {
	Fields []Field
	// intPrefix counts the leading integer fields: field i < intPrefix
	// sits at byte 8*i of every record, whatever follows it.
	intPrefix int
}

// NewSchema builds a schema from fields; field names must be unique.
func NewSchema(fields ...Field) *Schema {
	s := new(Schema)
	s.Reset(fields)
	return s
}

// Reset makes s the schema of fields in place, as NewSchema would build
// it, for a reader that builds one short-lived schema after another in
// the same storage. Whoever remembers something about s by its address
// must forget it.
func (s *Schema) Reset(fields []Field) {
	*s = Schema{Fields: fields}
	for i, f := range fields {
		if s.Index(f.Name) < i {
			panic(fmt.Sprintf("tuple: duplicate field %q", f.Name))
		}
		if f.Kind == KInt && s.intPrefix == i {
			s.intPrefix = i + 1
		}
	}
}

// Index returns the position of the named field, or -1.
func (s *Schema) Index(name string) int {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return i
		}
	}
	return -1
}

// Named reports whether a column called name answers to attr: it is
// attr itself, or attr qualified by a relation — "rel.attr", the way a
// stored query's result names its columns.
func Named(name, attr string) bool {
	n := len(name) - len(attr)
	return n >= 0 && name[n:] == attr && (n == 0 || name[n-1] == '.')
}

// Lookup is Index by Named: the field called attr or, failing that, the
// first one called "rel.attr"; -1 when there is neither.
func (s *Schema) Lookup(attr string) int {
	if i := s.Index(attr); i >= 0 {
		return i
	}
	for i, f := range s.Fields {
		if Named(f.Name, attr) {
			return i
		}
	}
	return -1
}

// MustIndex is Index but panics on unknown names (programming errors).
func (s *Schema) MustIndex(name string) int {
	i := s.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("tuple: no field %q in schema %v", name, s.Names()))
	}
	return i
}

// Names returns the field names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		names[i] = f.Name
	}
	return names
}

// NumFields returns the number of fields.
func (s *Schema) NumFields() int { return len(s.Fields) }

// Value is one field value. Exactly one arm is meaningful, per the
// field's Kind; Kind is carried to keep equality and printing honest.
type Value struct {
	Kind Kind
	Int  int64
	Str  string
	Raw  []byte
}

// IntVal wraps an integer value.
func IntVal(v int64) Value { return Value{Kind: KInt, Int: v} }

// StrVal wraps a character value.
func StrVal(v string) Value { return Value{Kind: KString, Str: v} }

// BytesVal wraps a raw byte value.
func BytesVal(v []byte) Value { return Value{Kind: KBytes, Raw: v} }

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KInt:
		return v.Int == o.Int
	case KString:
		return v.Str == o.Str
	default:
		return string(v.Raw) == string(o.Raw)
	}
}

// Compare orders two values of the same kind: -1, 0, +1.
func (v Value) Compare(o Value) int {
	switch v.Kind {
	case KInt:
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		}
		return 0
	case KString:
		return strings.Compare(v.Str, o.Str)
	default:
		return strings.Compare(string(v.Raw), string(o.Raw))
	}
}

func (v Value) String() string {
	switch v.Kind {
	case KInt:
		return fmt.Sprintf("%d", v.Int)
	case KString:
		return v.Str
	default:
		return fmt.Sprintf("0x%x", v.Raw)
	}
}

// Tuple is an ordered list of values conforming to a schema.
type Tuple []Value

// ErrDecode reports a malformed record.
var ErrDecode = errors.New("tuple: malformed record")

// Encode serializes t per schema s, appending to dst.
func Encode(dst []byte, s *Schema, t Tuple) ([]byte, error) {
	if len(t) != len(s.Fields) {
		return nil, fmt.Errorf("tuple: %d values for %d fields", len(t), len(s.Fields))
	}
	for i, f := range s.Fields {
		v := t[i]
		if v.Kind != f.Kind {
			return nil, fmt.Errorf("tuple: field %q wants %v, got %v", f.Name, f.Kind, v.Kind)
		}
		switch f.Kind {
		case KInt:
			dst = AppendInt(dst, v.Int)
		case KString:
			dst = append(appendLen(dst, len(v.Str)), v.Str...)
		case KBytes:
			dst = AppendBytes(dst, v.Raw)
		}
	}
	return dst, nil
}

// AppendInt appends an integer field holding v, as Encode writes it.
func AppendInt(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

// AppendBytes appends a byte field holding b, as Encode writes it. With
// AppendInt it lets a loader build a record of one schema from a stored
// record of another whose fields are a run of its own.
func AppendBytes(dst, b []byte) []byte {
	return append(appendLen(dst, len(b)), b...)
}

// appendLen appends a variable field's length prefix. A string body is
// appended as a string, not converted to []byte, so encoding a row into
// a reused buffer allocates nothing.
func appendLen(dst []byte, n int) []byte {
	if n > 0xffff {
		panic("tuple: variable field exceeds 64 KiB")
	}
	return binary.LittleEndian.AppendUint16(dst, uint16(n))
}

// Decode parses rec per schema s. String and byte values copy out of rec
// so the record buffer may be unpinned afterwards.
func Decode(s *Schema, rec []byte) (Tuple, error) {
	t := make(Tuple, len(s.Fields))
	off := 0
	for i, f := range s.Fields {
		switch f.Kind {
		case KInt:
			if off+8 > len(rec) {
				return nil, fmt.Errorf("%w: field %q", ErrDecode, f.Name)
			}
			t[i] = IntVal(int64(binary.LittleEndian.Uint64(rec[off:])))
			off += 8
		default:
			if off+2 > len(rec) {
				return nil, fmt.Errorf("%w: field %q length", ErrDecode, f.Name)
			}
			n := int(binary.LittleEndian.Uint16(rec[off:]))
			off += 2
			if off+n > len(rec) {
				return nil, fmt.Errorf("%w: field %q body", ErrDecode, f.Name)
			}
			if f.Kind == KString {
				t[i] = StrVal(string(rec[off : off+n]))
			} else {
				t[i] = BytesVal(append([]byte(nil), rec[off:off+n]...))
			}
			off += n
		}
	}
	if off != len(rec) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(rec)-off)
	}
	return t, nil
}

// Check walks rec's framing exactly as Decode does — every field in
// bounds, no trailing bytes — without materializing a value, so
// Check(s, rec) == nil exactly when Decode(s, rec) succeeds. Readers that
// take single fields out of a record with DecodeField call it once when
// the record enters their hands: DecodeField stops at the field it wants
// and would not notice damage behind it.
func Check(s *Schema, rec []byte) error {
	off := 0
	for _, f := range s.Fields {
		if f.Kind == KInt {
			if off+8 > len(rec) {
				return fmt.Errorf("%w: field %q", ErrDecode, f.Name)
			}
			off += 8
			continue
		}
		if off+2 > len(rec) {
			return fmt.Errorf("%w: field %q length", ErrDecode, f.Name)
		}
		off += 2 + int(binary.LittleEndian.Uint16(rec[off:]))
		if off > len(rec) {
			return fmt.Errorf("%w: field %q body", ErrDecode, f.Name)
		}
	}
	if off != len(rec) {
		return fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(rec)-off)
	}
	return nil
}

// DecodeField parses only field idx out of rec, skipping earlier fields
// without materializing them. Projection-heavy readers use this to avoid
// per-tuple garbage. An integer inside the schema's integer prefix is
// one bounds check and one load at byte 8*idx; a record too short for it
// takes the walk below, which refuses it as it always has.
func DecodeField(s *Schema, rec []byte, idx int) (Value, error) {
	if uint(idx) < uint(s.intPrefix) && 8*idx+8 <= len(rec) {
		return IntVal(int64(binary.LittleEndian.Uint64(rec[8*idx:]))), nil
	}
	body, err := FieldBytes(s, rec, idx)
	if err != nil {
		return Value{}, err
	}
	switch s.Fields[idx].Kind {
	case KInt:
		return IntVal(int64(binary.LittleEndian.Uint64(body))), nil
	case KString:
		return StrVal(string(body)), nil
	default:
		return BytesVal(append([]byte(nil), body...)), nil
	}
}

// Int is DecodeField for an integer field, returning the integer: a
// record is refused exactly when DecodeField refuses it (inside the
// integer prefix, when it is shorter than 8*(idx+1)), and a field of
// another kind is an error. It is the way to read an integer per row:
// the seven-word Value DecodeField returns crosses the stack on both
// sides of the call, which costs several times the load itself.
func Int(s *Schema, rec []byte, idx int) (int64, error) {
	if uint(idx) < uint(s.intPrefix) && 8*idx+8 <= len(rec) {
		return int64(binary.LittleEndian.Uint64(rec[8*idx:])), nil
	}
	body, err := FieldBytes(s, rec, idx)
	if err != nil {
		return 0, err
	}
	if f := s.Fields[idx]; f.Kind != KInt {
		return 0, fmt.Errorf("tuple: field %q is %v, not int", f.Name, f.Kind)
	}
	return int64(binary.LittleEndian.Uint64(body)), nil
}

// PutInt overwrites integer field idx of rec with v in place: the bytes
// Encode would produce for the decoded tuple with field idx set to v,
// without decoding anything. It refuses exactly the records and fields
// Int refuses, and leaves a refused record untouched. Updates patch a
// pinned record with it.
func PutInt(s *Schema, rec []byte, idx int, v int64) error {
	if uint(idx) < uint(s.intPrefix) && 8*idx+8 <= len(rec) {
		binary.LittleEndian.PutUint64(rec[8*idx:], uint64(v))
		return nil
	}
	body, err := FieldBytes(s, rec, idx)
	if err != nil {
		return err
	}
	if f := s.Fields[idx]; f.Kind != KInt {
		return fmt.Errorf("tuple: field %q is %v, not int", f.Name, f.Kind)
	}
	binary.LittleEndian.PutUint64(body, uint64(v))
	return nil
}

// FieldBytes returns the encoded body of field idx as a view into rec:
// the used bytes of a character or byte field (without the length
// prefix), the eight bytes of an integer. It runs the length checks of
// DecodeField and refuses the same records, but copies nothing: the view
// is read-only and lives as long as rec does — for a record handed to a
// cursor or View callback, until that callback returns. Its capacity
// equals its length, so appending to it never writes into rec.
func FieldBytes(s *Schema, rec []byte, idx int) ([]byte, error) {
	i, off := 0, 0
	if p := s.intPrefix; idx >= p && 8*p <= len(rec) {
		i, off = p, 8*p // the integer prefix needs no walk
	}
	for ; i < len(s.Fields); i++ {
		f := s.Fields[i]
		end := off + 8
		if f.Kind != KInt {
			if off+2 > len(rec) {
				return nil, fmt.Errorf("%w: field %q length", ErrDecode, f.Name)
			}
			off += 2
			end = off + int(binary.LittleEndian.Uint16(rec[off-2:]))
		}
		if end > len(rec) {
			if f.Kind == KInt {
				return nil, fmt.Errorf("%w: field %q", ErrDecode, f.Name)
			}
			return nil, fmt.Errorf("%w: field %q body", ErrDecode, f.Name)
		}
		if i == idx {
			return rec[off:end:end], nil
		}
		off = end
	}
	return nil, fmt.Errorf("%w: field %d out of range", ErrDecode, idx)
}

// Key returns the tuple's primary-key integer (field 0 by convention).
func Key(s *Schema, rec []byte) (int64, error) {
	if len(s.Fields) == 0 || s.Fields[0].Kind != KInt {
		return 0, errors.New("tuple: schema has no integer key field")
	}
	if len(rec) < 8 {
		return 0, ErrDecode
	}
	return int64(binary.LittleEndian.Uint64(rec)), nil
}

func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
