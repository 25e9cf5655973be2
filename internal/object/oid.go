// Package object defines the complex-object model of the paper: object
// identifiers, units of subobjects, and the representation matrix
// (primary × cached representations, §2).
//
// An OID is "the concatenation of the relation identifier and the
// primary key of a tuple" (§2.2) — the simplest location-transparent
// identifier the paper considers. We pack the 16-bit relation id into
// the top bits of an int64 above a 48-bit primary key.
package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// OID identifies an object: relation id ⊕ primary key.
type OID int64

// MaxKey is the largest primary key an OID can carry (48 bits).
const MaxKey = (int64(1) << 48) - 1

// NewOID packs a relation id and primary key into an OID.
func NewOID(relID uint16, key int64) OID {
	if key < 0 || key > MaxKey {
		panic(fmt.Sprintf("object: key %d out of 48-bit range", key))
	}
	return OID(int64(relID)<<48 | key)
}

// Rel returns the relation-id half of the OID.
func (o OID) Rel() uint16 { return uint16(uint64(o) >> 48) }

// Key returns the primary-key half of the OID.
func (o OID) Key() int64 { return int64(o) & MaxKey }

func (o OID) String() string { return fmt.Sprintf("%d:%d", o.Rel(), o.Key()) }

// ErrBadOIDList reports a malformed encoded OID list.
var ErrBadOIDList = errors.New("object: malformed OID list")

// EncodeOIDs serializes an OID list for storage in a "children"
// attribute (§2.2 shows group.members holding the members' OIDs).
func EncodeOIDs(oids []OID) []byte {
	return AppendEncoded(make([]byte, 0, 8*len(oids)), oids)
}

// AppendEncoded appends EncodeOIDs(oids) to dst, for a writer that
// encodes one list after another into storage it owns.
func AppendEncoded(dst []byte, oids []OID) []byte {
	for _, o := range oids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(o))
	}
	return dst
}

// DecodeOIDs parses an encoded OID list.
func DecodeOIDs(raw []byte) ([]OID, error) {
	out, err := AppendOIDs(make([]OID, 0, len(raw)/8), raw)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendOIDs parses an encoded OID list onto dst, so a reader that walks
// many lists can land them all in storage it owns. raw is only read; a
// malformed list leaves dst as it was.
func AppendOIDs(dst []OID, raw []byte) ([]OID, error) {
	if len(raw)%8 != 0 {
		return dst, fmt.Errorf("%w: %d bytes", ErrBadOIDList, len(raw))
	}
	dst = slices.Grow(dst, len(raw)/8)
	for ; len(raw) > 0; raw = raw[8:] {
		dst = append(dst, OID(binary.LittleEndian.Uint64(raw)))
	}
	return dst, nil
}

// Unit is "a collection of subobjects which belong to one relation and
// which are referenced by one object" (§3.2). Units are the granule of
// caching: their values are cached together.
type Unit []OID

// HashKey derives the Cache relation's key for a unit: "a function of
// the concatenation of the OID's in that unit" (§4). FNV-1a over the
// packed OIDs.
func (u Unit) HashKey() int64 {
	h := uint64(14695981039346656037)
	var b [8]byte
	for _, o := range u {
		binary.LittleEndian.PutUint64(b[:], uint64(o))
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	return int64(h)
}
