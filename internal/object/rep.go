package object

import (
	"encoding/binary"
	"fmt"

	"corep/internal/tuple"
)

// Primary enumerates the primary representations of §2.1: how an object
// stores the relationship to its subobjects.
type Primary uint8

// Primary representation alternatives.
const (
	// Procedural: the subobjects are identified by a stored retrieve-only
	// query, evaluated on demand (POSTGRES style, §2.1.1).
	Procedural Primary = iota
	// OIDs: a list of subobject identifiers is stored with the object
	// (§2.2); the representation the paper's experiments analyze.
	OIDs
	// ValueBased: subobject values are stored inline in the referencing
	// object (NF² / EXTRA "own", §2.2.1); subobjects have no independent
	// identity and shared subobjects are replicated.
	ValueBased
)

func (p Primary) String() string {
	switch p {
	case Procedural:
		return "procedural"
	case OIDs:
		return "oid"
	case ValueBased:
		return "value-based"
	}
	return fmt.Sprintf("primary(%d)", uint8(p))
}

// Cached enumerates the cached (auxiliary) representations of §2.3.
type Cached uint8

// Cached representation alternatives.
const (
	CacheNone   Cached = iota // nothing precomputed
	CacheOIDs                 // subobject identities cached
	CacheValues               // subobject values cached
)

func (c Cached) String() string {
	switch c {
	case CacheNone:
		return "none"
	case CacheOIDs:
		return "oids"
	case CacheValues:
		return "values"
	}
	return fmt.Sprintf("cached(%d)", uint8(c))
}

// Valid reports whether a (primary, cached) cell of the representation
// matrix makes sense (Figure 1): caching adds nothing to a value-based
// primary representation, and caching OIDs on top of an OID primary
// representation is vacuous.
func Valid(p Primary, c Cached) bool {
	switch p {
	case Procedural:
		return true // none, OIDs or values may be cached
	case OIDs:
		return c != CacheOIDs // identities are already the primary rep
	case ValueBased:
		return c == CacheNone // the object already holds everything
	}
	return false
}

// Matrix lists every representation-matrix cell and whether this study
// or the prior one covers it, mirroring Figure 1. Exposed for
// documentation tooling and the examples.
type MatrixCell struct {
	Primary Primary
	Cached  Cached
	Valid   bool
	Studied string // "" if not studied; else which paper/section
}

// RepresentationMatrix returns Figure 1 as data.
func RepresentationMatrix() []MatrixCell {
	cells := []MatrixCell{}
	for _, p := range []Primary{Procedural, OIDs, ValueBased} {
		for _, c := range []Cached{CacheNone, CacheOIDs, CacheValues} {
			cell := MatrixCell{Primary: p, Cached: c, Valid: Valid(p, c)}
			switch {
			case p == Procedural && cell.Valid:
				cell.Studied = "[JHIN88]"
			case p == OIDs && cell.Valid:
				cell.Studied = "this paper (§3–6)"
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// EncodeNested serializes subobject tuples for inline (value-based)
// storage: a count followed by length-prefixed encoded tuples. The
// group.members example in §2.2.1 stores member values this way.
func EncodeNested(s *tuple.Schema, tuples []tuple.Tuple) ([]byte, error) {
	out := make([]byte, 4)
	binary.LittleEndian.PutUint32(out, uint32(len(tuples)))
	for _, t := range tuples {
		rec, err := tuple.Encode(nil, s, t)
		if err != nil {
			return nil, err
		}
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(rec)))
		out = append(out, l[:]...)
		out = append(out, rec...)
	}
	return out, nil
}

// EachNested walks the inline subobject records of a value written by
// EncodeNested, calling fn with each encoded record as a view into raw —
// nothing is decoded or copied, so a reader that wants one field of each
// member pays for that field only. The framing is checked as the walk
// reaches it: fn has already seen the members before a truncation, and
// trailing bytes are reported after the last one.
func EachNested(raw []byte, fn func(rec []byte) error) error {
	if len(raw) < 4 {
		return fmt.Errorf("object: nested value too short (%d bytes)", len(raw))
	}
	n := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	for i := 0; i < n; i++ {
		if len(raw) < 4 {
			return fmt.Errorf("object: nested value truncated at tuple %d", i)
		}
		l := int(binary.LittleEndian.Uint32(raw))
		raw = raw[4:]
		if len(raw) < l {
			return fmt.Errorf("object: nested tuple %d truncated", i)
		}
		if err := fn(raw[:l]); err != nil {
			return err
		}
		raw = raw[l:]
	}
	if len(raw) != 0 {
		return fmt.Errorf("object: %d trailing bytes after nested tuples", len(raw))
	}
	return nil
}

// DecodeNested parses inline subobject tuples written by EncodeNested.
func DecodeNested(s *tuple.Schema, raw []byte) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	if len(raw) >= 4 {
		// Every member takes at least its 4-byte length, which bounds what
		// a damaged count can make this reserve.
		out = make([]tuple.Tuple, 0, min(int(binary.LittleEndian.Uint32(raw)), len(raw)/4))
	}
	err := EachNested(raw, func(rec []byte) error {
		t, err := tuple.Decode(s, rec)
		out = append(out, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
