// Package jsonx is the server's one JSON reader, a byte-cursor scanner:
// plans, request bodies and NDJSON load lines are read through it in one
// pass, with no intermediate maps, RawMessages or reflection, and the
// canonical encoders write strings through AppendString.
//
// What it accepts is encoding/json's grammar exactly — the same literals,
// number forms, string escapes and whitespace — and what a string decodes
// to is what encoding/json decodes it to (invalid UTF-8 and lone surrogate
// escapes become U+FFFD). A typed read that fails (String, Bool, Int, Uint,
// Float, Literal) leaves Pos at the value's first byte, so the caller can
// try another type, or SkipValue to tell a well-formed value of the wrong
// type from malformed JSON.
package jsonx

import (
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Scanner is a cursor over one JSON document.
type Scanner struct {
	Data []byte
	Pos  int
}

// Peek skips whitespace and returns the next byte without consuming it, or
// 0 at the end of the data.
func (s *Scanner) Peek() byte {
	for s.Pos < len(s.Data) {
		switch c := s.Data[s.Pos]; c {
		case ' ', '\t', '\n', '\r':
			s.Pos++
		default:
			return c
		}
	}
	return 0
}

// Consume skips whitespace and consumes c, a punctuation byte, if it is
// the next one.
func (s *Scanner) Consume(c byte) bool {
	if s.Peek() != c {
		return false
	}
	s.Pos++
	return true
}

// More is the separator step inside an object or array whose opening
// bracket has been consumed: it reports whether another member follows.
// first is true before the first member. ok is false when what follows is
// neither a member nor the closing bracket.
func (s *Scanner) More(first bool, closing byte) (more, ok bool) {
	switch c := s.Peek(); {
	case c == closing:
		s.Pos++
		return false, true
	case first:
		return true, true
	case c == ',':
		s.Pos++
		// "[1,]" is malformed: a value must follow a comma.
		return true, s.Peek() != closing
	}
	return false, false
}

// Key reads an object member's name and the colon after it.
func (s *Scanner) Key() (key []byte, ok bool) {
	if key, ok = s.String(); !ok {
		return nil, false
	}
	return key, s.Consume(':')
}

// Literal consumes the bare word lit ("null", "true", "false") if the next
// bytes spell it.
func (s *Scanner) Literal(lit string) bool {
	s.Peek()
	if len(s.Data)-s.Pos < len(lit) || string(s.Data[s.Pos:s.Pos+len(lit)]) != lit {
		return false
	}
	s.Pos += len(lit)
	return true
}

// Bool reads true or false.
func (s *Scanner) Bool() (v, ok bool) {
	if s.Literal("true") {
		return true, true
	}
	return false, s.Literal("false")
}

// String reads a string literal and returns its decoded bytes: a sub-slice
// of Data when the literal holds no escape and no invalid UTF-8, a fresh
// buffer otherwise.
func (s *Scanner) String() (v []byte, ok bool) {
	if s.Peek() != '"' {
		return nil, false
	}
	start := s.Pos + 1
	for i := start; i < len(s.Data); i++ {
		switch c := s.Data[i]; {
		case c == '"':
			s.Pos = i + 1
			return s.Data[start:i], true
		case c == '\\' || c >= utf8.RuneSelf:
			return s.unquote(start, i)
		case c < ' ':
			return nil, false
		}
	}
	return nil, false
}

// unquote is String's slow path, entered at the first escape or non-ASCII
// byte i with Data[start:i] already known to be clean.
func (s *Scanner) unquote(start, i int) ([]byte, bool) {
	d := s.Data
	// Non-ASCII text that is valid UTF-8 and escape-free is still zero-copy.
	for i < len(d) && d[i] != '\\' && d[i] != '"' && d[i] >= ' ' {
		if d[i] < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(d[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	if i < len(d) && d[i] == '"' {
		s.Pos = i + 1
		return d[start:i], true
	}
	out := append(make([]byte, 0, i-start+16), d[start:i]...)
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			s.Pos = i + 1
			return out, true
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			i++
		case c != '\\':
			// Each invalid byte decodes to RuneError, as in encoding/json.
			r, size := utf8.DecodeRune(d[i:])
			out = utf8.AppendRune(out, r)
			i += size
		default:
			if i+1 >= len(d) {
				return nil, false
			}
			i += 2
			switch e := d[i-1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d, i)
				if r < 0 {
					return nil, false
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A valid pair combines; half a pair is U+FFFD and the
					// escape after it is read on its own.
					r2 := rune(-1)
					if i+1 < len(d) && d[i] == '\\' && d[i+1] == 'u' {
						r2 = hex4(d, i+2)
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, false
			}
		}
	}
	return nil, false
}

// hex4 decodes the four hex digits at d[i:], -1 if they are not there.
func hex4(d []byte, i int) rune {
	if i+4 > len(d) {
		return -1
	}
	var r rune
	for _, c := range d[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number consumes one number literal, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// and reports whether it is a plain integer (no fraction, no exponent).
func (s *Scanner) number() (lit []byte, integer, ok bool) {
	s.Peek()
	d, i := s.Data, s.Pos
	digits := func() bool {
		from := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if !digits() {
		return nil, false, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		i++
		if integer = false; !digits() {
			return nil, false, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if integer = false; !digits() {
			return nil, false, false
		}
	}
	lit, s.Pos = d[s.Pos:i], i
	return lit, integer, true
}

// Number reads a number literal of any form and returns its text.
func (s *Scanner) Number() ([]byte, bool) {
	lit, _, ok := s.number()
	return lit, ok
}

// Uint reads an unsigned integer literal. As in encoding/json, a fraction,
// an exponent, a sign ("-0" included) or a value past 64 bits is not one.
func (s *Scanner) Uint() (uint64, bool) {
	lit, integer, ok := s.number()
	if !ok {
		return 0, false
	}
	if u, ok := parseUint(lit); ok && integer && lit[0] != '-' {
		return u, true
	}
	s.Pos -= len(lit)
	return 0, false
}

// Int reads a signed integer literal in int64's range ("-0" is 0).
func (s *Scanner) Int() (int64, bool) {
	lit, integer, ok := s.number()
	if !ok {
		return 0, false
	}
	neg := lit[0] == '-'
	u, ok := parseUint(lit)
	switch {
	case !ok || !integer || u > 1<<63 || (u == 1<<63 && !neg):
		s.Pos -= len(lit)
		return 0, false
	case neg:
		return -int64(u), true
	}
	return int64(u), true
}

// parseUint reads the integer part of a number literal, sign skipped.
func parseUint(lit []byte) (uint64, bool) {
	var u uint64
	for _, c := range lit {
		if c == '-' {
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		v := uint64(c - '0')
		if u > (math.MaxUint64-v)/10 {
			return 0, false
		}
		u = u*10 + v
	}
	return u, true
}

// Float reads a number literal as a float64; one that overflows float64 is
// rejected, as in encoding/json.
func (s *Scanner) Float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.Pos -= len(lit)
	}
	return f, err == nil
}

// SkipValue consumes one value of any type, validating it, and fails on a
// value that nests arrays and objects more than maxDepth deep.
func (s *Scanner) SkipValue(maxDepth int) bool {
	switch c := s.Peek(); c {
	case '"':
		_, ok := s.String()
		return ok
	case '{', '[':
		if maxDepth <= 0 {
			return false
		}
		s.Pos++
		closing := c + 2 // '{'+2 == '}', '['+2 == ']'
		for first := true; ; first = false {
			more, ok := s.More(first, closing)
			if !ok || !more {
				return ok
			}
			if c == '{' {
				if _, ok := s.Key(); !ok {
					return false
				}
			}
			if !s.SkipValue(maxDepth - 1) {
				return false
			}
		}
	case 't':
		return s.Literal("true")
	case 'f':
		return s.Literal("false")
	case 'n':
		return s.Literal("null")
	}
	_, _, ok := s.number()
	return ok
}

// End reports whether only whitespace is left.
func (s *Scanner) End() bool {
	s.Peek()
	return s.Pos >= len(s.Data)
}

// jsonSafe marks the ASCII bytes encoding/json copies unescaped with its
// default HTML-safe escaping: everything printable but " \ < > &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal, byte for byte what
// encoding/json produces: safe ASCII runs are copied, " and \ and the
// short control escapes get a backslash, other control bytes and < > &
// become \u00XX, U+2028 and U+2029 are escaped, and each byte of invalid
// UTF-8 becomes the six characters \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
