// Package pql implements the small retrieve-only query language used by
// the procedural representation (§2.1.1): stored attributes such as
//
//	retrieve (person.all) where person.age >= 60
//	retrieve (person.name) where person.name = cyclist.name
//
// mirror the POSTGRES procedure attributes of the paper's example. The
// language is a QUEL subset — retrieve with a target list, and a where
// clause of comparisons combined with and/or.
package pql

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokOp // comparison operator
)

// token is one token of a source: its kind and the bounds of its text —
// the token itself, or a string constant's body between its quotes. The
// text stays in the source, whatever the source is held in, until the
// parser asks for it.
type token struct {
	kind   tokKind
	lo, hi int
}

// lexAt reads the token that starts at or after src[i] and returns it
// with the offset just past it. Keywords stay tokIdent; the parser
// recognizes them case-insensitively. A token only marks where its text
// is, so lexing allocates nothing, and a statement reads the same from a
// string as from the bytes of a stored children value.
func lexAt[S string | []byte](src S, i int) (token, int, error) {
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	if i == len(src) {
		return token{tokEOF, i, i}, i, nil
	}
	c := src[i]
	switch {
	case c == '(':
		return token{tokLParen, i, i + 1}, i + 1, nil
	case c == ')':
		return token{tokRParen, i, i + 1}, i + 1, nil
	case c == ',':
		return token{tokComma, i, i + 1}, i + 1, nil
	case c == '.':
		return token{tokDot, i, i + 1}, i + 1, nil
	case c == '=':
		return token{tokOp, i, i + 1}, i + 1, nil
	case c == '!' && i+1 < len(src) && src[i+1] == '=':
		return token{tokOp, i, i + 2}, i + 2, nil
	case c == '<' || c == '>':
		j := i + 1
		if j < len(src) && src[j] == '=' {
			j++
		}
		return token{tokOp, i, j}, j, nil
	case c == '"':
		j := i + 1
		for j < len(src) && src[j] != '"' {
			j++
		}
		if j >= len(src) {
			return token{}, i, fmt.Errorf("pql: unterminated string at %d", i)
		}
		return token{tokString, i + 1, j}, j + 1, nil
	case c == '-' || (c >= '0' && c <= '9'):
		j := i
		if c == '-' {
			j++
		}
		for j < len(src) && src[j] >= '0' && src[j] <= '9' {
			j++
		}
		if j == i || (c == '-' && j == i+1) {
			return token{}, i, fmt.Errorf("pql: bad number at %d", i)
		}
		return token{tokNumber, i, j}, j, nil
	case c >= utf8.RuneSelf || identClass[c]&identStart != 0:
		j := i
		for j < len(src) {
			r, n := rune(src[j]), 1
			if r >= utf8.RuneSelf {
				if r, n = runeAt(src, j); r == utf8.RuneError && n == 1 {
					return token{}, j, fmt.Errorf("pql: invalid UTF-8 at %d", j)
				}
			} else if identClass[r]&identPart != 0 {
				j++
				continue
			}
			if !unicode.IsLetter(r) && (j == i || !unicode.IsDigit(r)) {
				break
			}
			j += n
		}
		if j > i {
			return token{tokIdent, i, j}, j, nil
		}
		r, _ := runeAt(src, i)
		return token{}, i, fmt.Errorf("pql: unexpected character %q at %d", r, i)
	}
	return token{}, i, fmt.Errorf("pql: unexpected character %q at %d", c, i)
}

// identClass classes the ASCII bytes for identifiers: a letter or '_'
// may start one, and those, a digit or '#' continue it. A byte from
// 0x80 up starts a UTF-8 sequence, whose rune is classed by unicode.
var identClass = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		if 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_' {
			t[c] = identStart | identPart
		} else if '0' <= c && c <= '9' || c == '#' {
			t[c] = identPart
		}
	}
	return t
}()

const (
	identStart = 1 << iota
	identPart
)

// runeAt decodes the rune src[j:] starts with, and its size.
func runeAt[S string | []byte](src S, j int) (rune, int) {
	return utf8.DecodeRuneInString(string(src[j:min(j+utf8.UTFMax, len(src))]))
}

// keyword reports whether text spells kw, a lower-case ASCII keyword, in
// any case. It agrees with strings.EqualFold: the only runes that fold to
// an ASCII letter outside ASCII fold to k and s, which no keyword holds.
func keyword[S string | []byte](text S, kw string) bool {
	if len(text) != len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		if c := text[i]; c != kw[i] && c|0x20 != kw[i] {
			return false
		}
	}
	return true
}

// operators are the comparison operators, as Compare.Op holds them.
var operators = [...]string{"=", "!=", "<", "<=", ">", ">="}

// number is strconv.ParseInt(text, 10, 64) for a tokNumber's text, read
// where it stands: false when the value overflows an int64.
func number[S string | []byte](text S) (int64, bool) {
	neg := text[0] == '-'
	i, lim := 0, uint64(1<<63-1)
	if neg {
		i, lim = 1, 1<<63
	}
	var n uint64
	for ; i < len(text); i++ {
		d := uint64(text[i] - '0')
		if n > (lim-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}
