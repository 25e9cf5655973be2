package tuple

// Text is where the character bodies of one answer's values wait while
// the answer is collected, so that all its strings are one allocation: a
// value read through Field keeps its body's place in the text, and
// Resolve gives every such value its string, a substring of one
// exact-size copy of the text. Until then the value is staged (Staged):
// its Str is empty, and it must not leave the code collecting the
// answer. The zero Text is empty.
type Text struct {
	buf []byte
}

// Field is DecodeField for a value of the answer t collects: the body of
// a non-empty character field is appended to t, and the value is staged
// with its place there; any other value is DecodeField's.
func (t *Text) Field(s *Schema, rec []byte, idx int) (Value, error) {
	if uint(idx) >= uint(len(s.Fields)) || s.Fields[idx].Kind != KString {
		return DecodeField(s, rec, idx)
	}
	body, err := FieldBytes(s, rec, idx)
	if err != nil {
		return Value{}, err
	}
	if len(body) == 0 {
		return StrVal(""), nil
	}
	v := Value{Kind: KString, Int: int64(len(t.buf))<<16 | int64(len(body))}
	t.buf = append(t.buf, body...)
	return v, nil
}

// Staged reports whether v is a character value still waiting in a
// Text for its string. A staged value holds its body's place in Int, the
// offset shifted left by 16 bits over the length: a body is shorter than
// 64 KiB (Encode refuses longer ones) and never empty, so Int is not 0.
func Staged(v Value) bool { return v.Kind == KString && v.Int != 0 }

// Resolve gives every staged value of vals its string, a substring of
// one exact-size copy of t, and empties t. Every value staged in t must
// be in vals: t keeps no record of them.
func (t *Text) Resolve(vals []Value) {
	if len(t.buf) > 0 && len(vals) > 0 {
		s := string(t.buf)
		for i := range vals {
			if v := &vals[i]; Staged(*v) {
				off, n := v.Int>>16, v.Int&0xffff
				v.Str, v.Int = s[off:off+n], 0
			}
		}
	}
	t.buf = t.buf[:0]
}
