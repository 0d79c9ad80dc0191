// Package jsonread reads one JSON document held in memory, strictly and in
// a single pass, for decoders that know their format's shape: the
// reno.result/v1 store record (internal/sweep) and the reno.metrics/v1
// metric array (metrics). A Reader hands out each value as the type the
// caller expects — String, Number and its integer and float forms, Object
// and Array to walk a container — with no reflection and no intermediate
// tree.
//
// It accepts only RFC 8259 JSON, and it is stricter than encoding/json
// where a checked format wants it to be:
//
//   - an object key matches only byte for byte, as written: no case
//     folding and no escapes;
//   - a key repeated within one object is an error, not last-wins;
//   - null is not a value of any type (the typed readers refuse it);
//   - End refuses anything but whitespace after the document.
//
// Strings decode exactly as encoding/json decodes them (invalid UTF-8
// becomes U+FFFD): a string of printable ASCII with no escape is taken as
// it stands, and any other goes through encoding/json.
package jsonread

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// Reader reads the document it was made for, front to back.
type Reader struct {
	data []byte
	pos  int
}

// New returns a reader at the start of data.
func New(data []byte) Reader { return Reader{data: data} }

// fail reports a syntax error at the current offset.
func (r *Reader) fail(msg string) error {
	return fmt.Errorf("json at offset %d: %s", r.pos, msg)
}

// UnknownField is the error for a key the caller's format does not have.
func UnknownField(key []byte) error {
	return fmt.Errorf("unknown field %q", key)
}

// next skips whitespace and returns the next byte without consuming it
// (0 at the end of the input).
func (r *Reader) next() byte {
	d, i := r.data, r.pos
	for ; i < len(d); i++ {
		if c := d[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			r.pos = i
			return c
		}
	}
	r.pos = i
	return 0
}

// End checks that nothing but whitespace follows the document.
func (r *Reader) End() error {
	if r.next(); r.pos != len(r.data) {
		return r.fail("data after the document")
	}
	return nil
}

// literal consumes lit if it comes next, and reports whether it did.
func (r *Reader) literal(lit string) bool {
	if len(r.data)-r.pos < len(lit) || string(r.data[r.pos:r.pos+len(lit)]) != lit {
		return false
	}
	r.pos += len(lit)
	return true
}

// Null consumes a null if one is next, and reports whether it did.
func (r *Reader) Null() bool {
	return r.next() == 'n' && r.literal("null")
}

// Value consumes the next value with read and returns the bytes read
// consumed, without the whitespace before them.
func (r *Reader) Value(read func() error) ([]byte, error) {
	r.next()
	start := r.pos
	if err := read(); err != nil {
		return nil, err
	}
	return r.data[start:r.pos], nil
}

// Raw consumes the next value, an object or an array, and returns its
// bytes. It finds the value's end by its brackets and quotes alone, without
// checking what lies between them, so the caller must parse the bytes
// strictly (with a Reader of their own).
func (r *Reader) Raw() ([]byte, error) {
	if c := r.next(); c != '{' && c != '[' {
		return nil, r.fail("expected an object or an array")
	}
	d, start, depth := r.data, r.pos, 0
	for i := start; i < len(d); i++ {
		switch d[i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				r.pos = i + 1
				return d[start:r.pos], nil
			}
		case '"':
			for i++; i < len(d) && d[i] != '"'; i++ {
				if d[i] == '\\' {
					i++
				}
			}
		}
	}
	r.pos = len(d)
	return nil, r.fail("unterminated value")
}

// token consumes a string and returns the offsets of its body (between the
// quotes) and whether the body is plain: printable ASCII with no escape,
// which is the string's value as it stands.
func (r *Reader) token() (start, end int, plain bool, err error) {
	if r.next() != '"' {
		return 0, 0, false, r.fail("expected a string")
	}
	start, plain = r.pos+1, true
	for i := start; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			r.pos = i + 1
			return start, i, plain, nil
		case c == '\\':
			plain = false
			if i++; i == len(r.data) {
				break
			}
			switch r.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(r.data) || !isHex(r.data[i+1]) || !isHex(r.data[i+2]) || !isHex(r.data[i+3]) || !isHex(r.data[i+4]) {
					r.pos = i
					return 0, 0, false, r.fail(`invalid \u escape`)
				}
				i += 4
			default:
				r.pos = i
				return 0, 0, false, r.fail("invalid escape")
			}
		case c < 0x20:
			r.pos = i
			return 0, 0, false, r.fail("control character in string")
		case c > 0x7e:
			plain = false
		}
	}
	r.pos = len(r.data)
	return 0, 0, false, r.fail("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the string whose quoted form is data[start-1:end+1] as
// encoding/json does.
func (r *Reader) unquote(start, end int) (string, error) {
	var s string
	if err := json.Unmarshal(r.data[start-1:end+1], &s); err != nil {
		return "", fmt.Errorf("json at offset %d: %w", start-1, err)
	}
	return s, nil
}

// Bytes consumes a string and returns its value: for a plain string the
// bytes in the document, which the caller must not change.
func (r *Reader) Bytes() ([]byte, error) {
	start, end, plain, err := r.token()
	if err != nil || plain {
		return r.data[start:end], err
	}
	s, err := r.unquote(start, end)
	return []byte(s), err
}

// String consumes a string and returns its value.
func (r *Reader) String() (string, error) {
	b, err := r.Bytes()
	return string(b), err
}

// AppendString consumes a string and appends its value to dst.
func (r *Reader) AppendString(dst []byte) ([]byte, error) {
	b, err := r.Bytes()
	return append(dst, b...), err
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits advances i past a run of decimal digits.
func (r *Reader) digits(i int) int {
	for i < len(r.data) && isDigit(r.data[i]) {
		i++
	}
	return i
}

// Number consumes a number and returns its text, which has the RFC 8259
// form: an optional minus, an integer part without leading zeros, then
// optional fraction and exponent parts.
func (r *Reader) Number() ([]byte, error) {
	r.next()
	d, start := r.data, r.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && isDigit(d[i]):
		i = r.digits(i)
	default:
		return nil, r.fail("expected a number")
	}
	if i < len(d) && d[i] == '.' {
		if i++; i == len(d) || !isDigit(d[i]) {
			r.pos = i
			return nil, r.fail("expected a digit after the decimal point")
		}
		i = r.digits(i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i == len(d) || !isDigit(d[i]) {
			r.pos = i
			return nil, r.fail("expected a digit in the exponent")
		}
		i = r.digits(i)
	}
	r.pos = i
	return d[start:i], nil
}

// Uint64 consumes a number that is an unsigned 64-bit integer.
func (r *Reader) Uint64() (uint64, error) {
	num, err := r.Number()
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(string(num), 10, 64)
}

// Int64 consumes a number that is a signed 64-bit integer.
func (r *Reader) Int64() (int64, error) {
	num, err := r.Number()
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(num), 10, 64)
}

// Float64 consumes a number that a float64 can hold (one too large for it
// is an error, as in encoding/json).
func (r *Reader) Float64() (float64, error) {
	num, err := r.Number()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(num), 64)
}

// open consumes the opening byte of a container and reports whether it is
// empty, consuming its closing byte too if so.
func (r *Reader) open(c, closing byte, what string) (empty bool, err error) {
	if r.next() != c {
		return false, r.fail("expected " + what)
	}
	r.pos++
	if r.next() == closing {
		r.pos++
		return true, nil
	}
	return false, nil
}

// more consumes the byte after a container's element: a comma, when
// another element follows, or the closing byte.
func (r *Reader) more(closing byte) (bool, error) {
	switch r.next() {
	case ',':
		r.pos++
		return true, nil
	case closing:
		r.pos++
		return false, nil
	}
	return false, r.fail("expected ',' or '" + string(closing) + "'")
}

// Object consumes an object, calling field with each key (its bytes as
// written, between the quotes) to consume that key's value. A key that
// appears twice in the object is an error.
func (r *Reader) Object(field func(key []byte) error) error {
	if empty, err := r.open('{', '}', "an object"); empty || err != nil {
		return err
	}
	seen := make([][]byte, 0, 32)
	for {
		start, end, _, err := r.token()
		if err != nil {
			return err
		}
		key := r.data[start:end]
		for _, k := range seen {
			if bytes.Equal(k, key) {
				return r.fail(fmt.Sprintf("duplicate key %q", key))
			}
		}
		seen = append(seen, key)
		if r.next() != ':' {
			return r.fail("expected ':'")
		}
		r.pos++
		if err := field(key); err != nil {
			return err
		}
		if more, err := r.more('}'); !more || err != nil {
			return err
		}
	}
}

// Array consumes an array, calling elem to consume each element.
func (r *Reader) Array(elem func() error) error {
	if empty, err := r.open('[', ']', "an array"); empty || err != nil {
		return err
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if more, err := r.more(']'); !more || err != nil {
			return err
		}
	}
}
