// Package jsoncodec is the schema-free kernel of the repository's
// reflection-free JSON codecs: api's deploy bodies (api/wire.go) and
// persist's WAL records and snapshots (internal/persist/codec.go). Each
// of those writes its own field lists on top of what is here — string
// and float formatting, a decoder cursor, and the generic object, array
// and map walkers — so both follow one reading of encoding/json.
//
// The contract is encoding/json's, byte for byte and value for value:
//
//   - AppendString and AppendFloat write exactly the bytes encoding/json
//     writes for a string (HTML escaping on) and a finite float64.
//   - A Decoder step gives what json.Unmarshal gives, or false. It takes
//     only the shape the codecs emit — exact keys, each once, no null,
//     numbers that fit their fields, strings with valid UTF-8 whose
//     escapes are the simple ones or a non-surrogate \uXXXX — and on
//     false the caller hands the whole document to json.Unmarshal.
package jsoncodec

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// jsonEncoder is a pooled json.Encoder appending to a caller's slice.
type jsonEncoder struct {
	dst []byte
	enc *json.Encoder
}

func (e *jsonEncoder) Write(p []byte) (int, error) {
	e.dst = append(e.dst, p...)
	return len(p), nil
}

var encoderPool = sync.Pool{New: func() any {
	e := &jsonEncoder{}
	e.enc = json.NewEncoder(e)
	return e
}}

// AppendJSON appends what json.Encoder.Encode writes for v, trailing
// newline included. On error dst is returned unextended.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	e := encoderPool.Get().(*jsonEncoder)
	e.dst = dst
	err := e.enc.Encode(v)
	out := e.dst
	e.dst = nil
	encoderPool.Put(e)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// htmlSafe marks the ASCII bytes encoding/json writes as they stand
// with HTML escaping on.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(0x20); b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// AppendString appends s as a JSON string, escaped as encoding/json
// escapes it with HTML escaping on.
func AppendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendField appends a key — with its quotes, colon and any leading
// comma or brace — and a string value.
func AppendField(dst []byte, key, value string) []byte {
	return AppendString(append(dst, key...), value)
}

// AppendFloat formats a finite float64 as encoding/json does: like
// ES6, 'f' form unless the magnitude calls for an exponent, and the
// exponent without a leading zero. Callers refuse NaN and infinities,
// which encoding/json reports as an error.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// Finite reports whether encoding/json can encode f.
func Finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// Decoder is a cursor over one document. Every step returns false on
// anything outside the shape the codecs emit; the caller then hands the
// whole document to json.Unmarshal.
type Decoder struct {
	data []byte
	i    int
}

// Field decodes the value of one object member into *v, given its key;
// it is false on a key it does not know.
type Field[T any] func(d *Decoder, v *T, key []byte) bool

// Decode decodes one whole document, an object whose members field
// decodes, into *v, which is zero. If the fast path does not take all
// of it, *v is zeroed again for json.Unmarshal.
func Decode[T any](data []byte, v *T, field Field[T]) bool {
	d := Decoder{data: data}
	if Object(&d, v, field) {
		if d.space(); d.i == len(d.data) {
			return true
		}
	}
	var zero T
	*v = zero
	return false
}

// maxMembers bounds the members of one object: more than any codec
// type has fields leaves the fast path.
const maxMembers = 16

// Object decodes an object into v, each member's value by field. A
// repeated key leaves the fast path, since json.Unmarshal merges
// repeats.
func Object[T any](d *Decoder, v *T, field Field[T]) bool {
	if !d.Byte('{') {
		return false
	}
	var keys [maxMembers][]byte
	for n := 0; ; n++ {
		if d.Byte('}') {
			return true
		}
		if n == len(keys) || n > 0 && !d.Byte(',') {
			return false
		}
		key, ok := d.rawString()
		if !ok || !d.Byte(':') {
			return false
		}
		for _, k := range keys[:n] {
			if string(k) == string(key) {
				return false
			}
		}
		if keys[n] = key; !field(d, v, key) {
			return false
		}
	}
}

// Array decodes an array of objects into a fresh non-nil slice, as
// json.Unmarshal does into a nil one.
func Array[T any](d *Decoder, dst *[]T, field Field[T]) bool {
	if !d.Byte('[') {
		return false
	}
	out := []T{}
	for n := 0; ; n++ {
		if d.Byte(']') {
			*dst = out
			return true
		}
		if n > 0 && !d.Byte(',') {
			return false
		}
		var zero T
		out = append(out, zero)
		if !Object(d, &out[len(out)-1], field) {
			return false
		}
	}
}

// Strings decodes an array of strings into a fresh non-nil slice.
func (d *Decoder) Strings(dst *[]string) bool {
	if !d.Byte('[') {
		return false
	}
	out := []string{}
	for n := 0; ; n++ {
		if d.Byte(']') {
			*dst = out
			return true
		}
		if n > 0 && !d.Byte(',') {
			return false
		}
		var s string
		if !d.String(&s) {
			return false
		}
		out = append(out, s)
	}
}

// Map decodes an object of objects into a fresh non-nil map, as
// json.Unmarshal does into a nil one. Keys decode like any string; a
// repeated one leaves the fast path.
func Map[V any](d *Decoder, dst *map[string]V, field Field[V]) bool {
	return MapOf(d, dst, func(d *Decoder, v *V) bool { return Object(d, v, field) })
}

// MapOf is Map with each member's value decoded by value, for maps
// whose values are not objects.
func MapOf[V any](d *Decoder, dst *map[string]V, value func(*Decoder, *V) bool) bool {
	if !d.Byte('{') {
		return false
	}
	out := map[string]V{}
	for n := 0; ; n++ {
		if d.Byte('}') {
			*dst = out
			return true
		}
		if n > 0 && !d.Byte(',') {
			return false
		}
		var key string
		if !d.String(&key) || !d.Byte(':') {
			return false
		}
		if _, dup := out[key]; dup {
			return false
		}
		var v V
		if !value(d, &v) {
			return false
		}
		out[key] = v
	}
}

func (d *Decoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// Byte consumes c, after any whitespace.
func (d *Decoder) Byte(c byte) bool {
	d.space()
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// rawString returns the bytes of a string with no escapes, no control
// characters and valid UTF-8 — the strings json.Unmarshal copies
// verbatim. Object keys take this path only.
func (d *Decoder) rawString() ([]byte, bool) {
	if !d.Byte('"') {
		return nil, false
	}
	start, ascii := d.i, true
	for ; d.i < len(d.data); d.i++ {
		switch c := d.data[d.i]; {
		case c == '"':
			d.i++
			s := d.data[start : d.i-1]
			return s, ascii || utf8.Valid(s)
		case c < 0x20 || c == '\\':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// String decodes a string into a fresh copy. Raw runs are copied as
// they stand; \" \\ \/ \b \f \n \r \t and a \uXXXX outside the
// surrogate range decode as json.Unmarshal decodes them. A surrogate
// escape, a control character or invalid UTF-8 leaves the fast path,
// since json.Unmarshal pairs or replaces them.
func (d *Decoder) String(dst *string) bool {
	if !d.Byte('"') {
		return false
	}
	var scratch [64]byte
	buf, escaped := scratch[:0], false
	start, ascii := d.i, true
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			s := d.data[start:d.i]
			d.i++
			if escaped {
				s = append(buf, s...)
			}
			if !ascii && !utf8.Valid(s) {
				return false
			}
			*dst = string(s)
			return true
		case c == '\\':
			buf, escaped = append(buf, d.data[start:d.i]...), true
			var ok bool
			if buf, ok = d.escape(buf); !ok {
				return false
			}
			start = d.i
		case c < 0x20:
			return false
		case c >= utf8.RuneSelf:
			ascii = false
			d.i++
		default:
			d.i++
		}
	}
	return false
}

// escape decodes the escape at the cursor, a backslash, onto buf.
func (d *Decoder) escape(buf []byte) ([]byte, bool) {
	if d.i+1 >= len(d.data) {
		return buf, false
	}
	c := d.data[d.i+1]
	d.i += 2
	switch c {
	case '"', '\\', '/':
		return append(buf, c), true
	case 'b':
		return append(buf, '\b'), true
	case 'f':
		return append(buf, '\f'), true
	case 'n':
		return append(buf, '\n'), true
	case 'r':
		return append(buf, '\r'), true
	case 't':
		return append(buf, '\t'), true
	case 'u':
		if d.i+4 > len(d.data) {
			return buf, false
		}
		var r rune
		for _, h := range d.data[d.i : d.i+4] {
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return buf, false
			}
			r = r<<4 | rune(h)
		}
		d.i += 4
		if 0xD800 <= r && r < 0xE000 {
			return buf, false
		}
		return utf8.AppendRune(buf, r), true
	}
	return buf, false
}

// digits consumes a run of decimal digits and returns its length.
func (d *Decoder) digits() int {
	start := d.i
	for d.i < len(d.data) && d.data[d.i] >= '0' && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// skip consumes the next byte if it is one of set.
func (d *Decoder) skip(set string) {
	if d.i < len(d.data) && strings.IndexByte(set, d.data[d.i]) >= 0 {
		d.i++
	}
}

// number returns the JSON number literal at the cursor and whether it
// is an integer: no fraction, no exponent.
func (d *Decoder) number() (lit []byte, integer, ok bool) {
	d.space()
	start := d.i
	d.skip("-")
	first := d.i
	if n := d.digits(); n == 0 || n > 1 && d.data[first] == '0' {
		return nil, false, false
	}
	integer = true
	if d.i < len(d.data) && d.data[d.i] == '.' {
		d.i++
		integer = false
		if d.digits() == 0 {
			return nil, false, false
		}
	}
	if d.i < len(d.data) && (d.data[d.i] == 'e' || d.data[d.i] == 'E') {
		d.i++
		d.skip("+-")
		integer = false
		if d.digits() == 0 {
			return nil, false, false
		}
	}
	return d.data[start:d.i], integer, true
}

// integer returns an integer literal: a fraction or an exponent, which
// json.Unmarshal refuses for an integer field, leaves the fast path.
func (d *Decoder) integer() ([]byte, bool) {
	lit, integer, ok := d.number()
	return lit, ok && integer
}

// Int decodes an int as json.Unmarshal does; an out-of-range value
// leaves the fast path.
func (d *Decoder) Int(dst *int) bool {
	lit, ok := d.integer()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

// Int64 decodes an int64 as json.Unmarshal does.
func (d *Decoder) Int64(dst *int64) bool {
	lit, ok := d.integer()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = n
	return err == nil
}

// Uint64 decodes a uint64 as json.Unmarshal does; a sign, even on
// zero, leaves the fast path.
func (d *Decoder) Uint64(dst *uint64) bool {
	lit, ok := d.integer()
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	*dst = n
	return err == nil
}

// Float64 decodes a number literal with strconv.ParseFloat, as
// json.Unmarshal does; an out-of-range literal leaves the fast path.
func (d *Decoder) Float64(dst *float64) bool {
	lit, _, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

// Bool decodes true or false.
func (d *Decoder) Bool(dst *bool) bool {
	d.space()
	for _, lit := range [...]string{"false", "true"} {
		if end := d.i + len(lit); end <= len(d.data) && string(d.data[d.i:end]) == lit {
			d.i = end
			*dst = lit == "true"
			return true
		}
	}
	return false
}

// RawObject returns the bytes of the object at the cursor, nested at
// most maxDepth deep, for the caller to validate with json.Unmarshal;
// only the extent is found here.
func (d *Decoder) RawObject(maxDepth int) ([]byte, bool) {
	d.space()
	start, depth := d.i, 0
	for d.i < len(d.data) {
		c := d.data[d.i]
		d.i++
		switch c {
		case '"':
			for d.i < len(d.data) && d.data[d.i] != '"' {
				if d.data[d.i] == '\\' {
					d.i++
				}
				d.i++
			}
			d.i++
		case '{', '[':
			if depth++; depth > maxDepth {
				return nil, false
			}
		case '}', ']':
			if depth--; depth <= 0 {
				if depth < 0 || d.data[start] != '{' {
					return nil, false
				}
				return d.data[start:d.i], true
			}
		}
	}
	return nil, false
}
