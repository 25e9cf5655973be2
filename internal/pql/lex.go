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
	"strings"
	"unicode"
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

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexAt reads the token that starts at or after src[i] and returns it
// with the offset just past it. Keywords stay tokIdent; the parser
// recognizes them case-insensitively. Every token text is a substring of
// src or a constant, so lexing allocates nothing.
func lexAt(src string, i int) (token, int, error) {
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	if i == len(src) {
		return token{tokEOF, "", i}, i, nil
	}
	c := src[i]
	switch {
	case c == '(':
		return token{tokLParen, "(", i}, i + 1, nil
	case c == ')':
		return token{tokRParen, ")", i}, i + 1, nil
	case c == ',':
		return token{tokComma, ",", i}, i + 1, nil
	case c == '.':
		return token{tokDot, ".", i}, i + 1, nil
	case c == '=':
		return token{tokOp, "=", i}, i + 1, nil
	case c == '!' && i+1 < len(src) && src[i+1] == '=':
		return token{tokOp, "!=", i}, i + 2, nil
	case c == '<' || c == '>':
		j := i + 1
		if j < len(src) && src[j] == '=' {
			j++
		}
		return token{tokOp, src[i:j], i}, j, nil
	case c == '"':
		j := i + 1
		for j < len(src) && src[j] != '"' {
			j++
		}
		if j >= len(src) {
			return token{}, i, fmt.Errorf("pql: unterminated string at %d", i)
		}
		return token{tokString, src[i+1 : j], i}, j + 1, nil
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
		return token{tokNumber, src[i:j], i}, j, nil
	case unicode.IsLetter(rune(c)) || c == '_':
		j := i
		for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_' || src[j] == '#') {
			j++
		}
		return token{tokIdent, src[i:j], i}, j, nil
	}
	return token{}, i, fmt.Errorf("pql: unexpected character %q at %d", c, i)
}

func isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
