package object

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Children-attribute tag bytes: the first byte of an encoded children
// field names its primary representation. They are exported for loaders
// that write children values by hand; readers go through ParseChildren,
// the one place that switches on them.
const (
	// TagOIDs precedes an EncodeOIDs list.
	TagOIDs byte = 'O'
	// TagProc precedes a stored retrieve-query string.
	TagProc byte = 'P'
	// TagValue precedes a 2-byte little-endian relation id (the schema
	// shape the rows follow) and an EncodeNested body.
	TagValue byte = 'V'
)

// ErrBadChildren reports a children value ParseChildren cannot read.
var ErrBadChildren = errors.New("object: malformed children value")

// Children is a children value read or about to be written: its primary
// representation and that representation's payload.
type Children struct {
	Rep Primary
	// OIDs lists the subobjects (Rep == OIDs).
	OIDs []OID
	// Query is the stored retrieve query's text (Rep == Procedural) —
	// after ParseChildren a view into the parsed value, which a reader
	// that keeps the text copies.
	Query []byte
	// RelID names the relation whose schema the inline members follow and
	// Nested is their EncodeNested body — after ParseChildren a view into
	// the parsed value (Rep == ValueBased).
	RelID  uint16
	Nested []byte
}

// ParseChildren reads an encoded children value. An OID list is decoded
// into the storage of oids, from its start, as AppendOIDs(oids[:0], …)
// would: a reader that walks list after list lends one buffer, and one
// that keeps the list passes nil and gets its own. A stored query and
// inline members are views into raw, read where they stand. Only the
// framing the representation owns is checked here: the members of a
// value-based body are walked by EachNested or DecodeNested, a stored
// query is parsed by whoever runs it.
func ParseChildren(raw []byte, oids []OID) (Children, error) {
	if len(raw) == 0 {
		return Children{}, fmt.Errorf("%w: empty", ErrBadChildren)
	}
	switch raw[0] {
	case TagOIDs:
		if oids == nil {
			oids = make([]OID, 0, len(raw)/8)
		}
		oids, err := AppendOIDs(oids[:0], raw[1:])
		if err != nil {
			return Children{}, err
		}
		return Children{Rep: OIDs, OIDs: oids}, nil
	case TagProc:
		return Children{Rep: Procedural, Query: raw[1:len(raw):len(raw)]}, nil
	case TagValue:
		if len(raw) < 3 {
			return Children{}, fmt.Errorf("%w: value-based children cut short", ErrBadChildren)
		}
		return Children{Rep: ValueBased, RelID: binary.LittleEndian.Uint16(raw[1:]), Nested: raw[3:]}, nil
	}
	return Children{}, fmt.Errorf("%w: unknown representation tag %q", ErrBadChildren, raw[0])
}

// Encode serializes c; ParseChildren reads it back.
func (c Children) Encode() ([]byte, error) {
	switch c.Rep {
	case OIDs:
		return append([]byte{TagOIDs}, EncodeOIDs(c.OIDs)...), nil
	case Procedural:
		return append([]byte{TagProc}, c.Query...), nil
	case ValueBased:
		out := append(make([]byte, 0, 3+len(c.Nested)), TagValue, byte(c.RelID), byte(c.RelID>>8))
		return append(out, c.Nested...), nil
	}
	return nil, fmt.Errorf("object: children value without a representation (%v)", c.Rep)
}
