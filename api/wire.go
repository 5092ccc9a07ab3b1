package api

// The wire codec. On a hot deploy, reflective encoding and decoding of
// the bodies a deploy moves, and the garbage it leaves, cost more CPU
// than the platform does. AppendWire encodes WorkloadSpec, Workload,
// DeployRequest, DeployBatchRequest, DeployBatchResponse and
// LifecycleEvent without reflection, and UnmarshalWire decodes all but
// WorkloadSpec; both hand every other value to encoding/json.
//
// There is one semantics, encoding/json's:
//
//   - AppendWire writes exactly the bytes json.Encoder.Encode writes —
//     HTML escaping, \ufffd for invalid UTF-8, the U+2028/U+2029
//     escapes, omitempty, float formatting and the trailing newline.
//   - UnmarshalWire gives the value, and the success or failure,
//     json.Unmarshal gives on every input. Its fast path takes only the
//     shape AppendWire emits: exact keys, each once, no escapes, no
//     null, no unknown fields, numbers that fit their fields, decoding
//     into a zero value. Anything else goes to json.Unmarshal.
//
// FuzzWireCodec holds both rules against encoding/json. WireError
// elements of a batch response keep encoding/json in both directions.

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// AppendWire appends v's JSON encoding and a newline to dst — the
// bytes json.Encoder.Encode writes for v. On error dst is returned
// unextended.
func AppendWire(dst []byte, v any) ([]byte, error) {
	out, ok := dst, true
	switch v := v.(type) {
	case *WorkloadSpec:
		if v != nil {
			out = appendSpec(out, v)
		}
	case *Workload:
		if v != nil {
			out, ok = appendWorkload(out, v)
		}
	case *DeployRequest:
		if v != nil {
			out = appendSpec(append(out, `{"spec":`...), &v.Spec)
			out = append(out, '}')
		}
	case *DeployBatchRequest:
		if v != nil {
			out = appendSpecs(append(out, `{"specs":`...), v.Specs)
			out = append(out, '}')
		}
	case *DeployBatchResponse:
		if v != nil {
			out, ok = appendResults(append(out, `{"results":`...), v.Results)
			out = append(out, '}')
		}
	case *LifecycleEvent:
		if v != nil {
			out = appendEvent(out, v)
		}
	default:
		return appendJSON(dst, v)
	}
	if !ok {
		// A non-finite score: encoding/json reports the error.
		return appendJSON(dst, v)
	}
	if len(out) == len(dst) { // a nil pointer
		out = append(out, "null"...)
	}
	return append(out, '\n'), nil
}

// UnmarshalWire decodes data into v as json.Unmarshal(data, v) does.
func UnmarshalWire(data []byte, v any) error {
	ok := false
	switch v := v.(type) {
	case *Workload:
		ok = v != nil && zeroWorkload(v) && decodeTop(data, v, workloadField)
	case *DeployRequest:
		ok = v != nil && *v == DeployRequest{} && decodeTop(data, v, deployRequestField)
	case *DeployBatchRequest:
		ok = v != nil && v.Specs == nil && decodeTop(data, v, batchRequestField)
	case *DeployBatchResponse:
		ok = v != nil && v.Results == nil && decodeTop(data, v, batchResponseField)
	case *LifecycleEvent:
		ok = v != nil && *v == LifecycleEvent{} && decodeTop(data, v, eventField)
	}
	if ok {
		return nil
	}
	return json.Unmarshal(data, v)
}

// zeroWorkload reports whether w is the zero Workload, bit for bit: a
// -0 score is not zero, since json.Unmarshal would leave it in place.
func zeroWorkload(w *Workload) bool {
	c := *w
	c.Score = 0
	return math.Float64bits(w.Score) == 0 && c == Workload{}
}

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

// appendJSON is AppendWire through encoding/json.
func appendJSON(dst []byte, v any) ([]byte, error) {
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

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it with HTML escaping on.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
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

// appendField appends a key — with its quotes, colon and any leading
// comma or brace — and a string value.
func appendField(dst []byte, key, value string) []byte {
	dst = append(dst, key...)
	return appendString(dst, value)
}

func appendSpec(dst []byte, s *WorkloadSpec) []byte {
	dst = appendField(dst, `{"name":`, s.Name)
	dst = appendField(dst, `,"tenant":`, s.Tenant)
	dst = appendField(dst, `,"imageRef":`, s.ImageRef)
	if s.Isolation != "" {
		dst = appendField(dst, `,"isolation":`, s.Isolation)
	}
	dst = append(dst, `,"resources":{"cpuMilli":`...)
	dst = strconv.AppendInt(dst, int64(s.Resources.CPUMilli), 10)
	dst = append(dst, `,"memoryMB":`...)
	dst = strconv.AppendInt(dst, int64(s.Resources.MemoryMB), 10)
	dst = append(dst, '}')
	if s.PlacementPolicy != "" {
		dst = appendField(dst, `,"placementPolicy":`, s.PlacementPolicy)
	}
	if s.Region != "" {
		dst = appendField(dst, `,"region":`, s.Region)
	}
	return append(dst, '}')
}

func appendSpecs(dst []byte, specs []WorkloadSpec) []byte {
	if specs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range specs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendSpec(dst, &specs[i])
	}
	return append(dst, ']')
}

// appendWorkload is false on a NaN or infinite score, which
// encoding/json refuses to encode.
func appendWorkload(dst []byte, w *Workload) ([]byte, bool) {
	dst = appendSpec(append(dst, `{"spec":`...), &w.Spec)
	dst = appendField(dst, `,"node":`, w.Node)
	dst = appendField(dst, `,"vmId":`, w.VMID)
	if w.PlacedAtMs != 0 {
		dst = append(dst, `,"placedAtMs":`...)
		dst = strconv.AppendInt(dst, w.PlacedAtMs, 10)
	}
	if w.Strategy != "" {
		dst = appendField(dst, `,"strategy":`, w.Strategy)
	}
	if w.Score != 0 {
		if math.IsInf(w.Score, 0) || math.IsNaN(w.Score) {
			return dst, false
		}
		dst = appendFloat(append(dst, `,"score":`...), w.Score)
	}
	return append(dst, '}'), true
}

// appendFloat formats a finite float64 as encoding/json does: like
// ES6, 'f' form unless the magnitude calls for an exponent, and the
// exponent without a leading zero.
func appendFloat(dst []byte, f float64) []byte {
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

func appendResults(dst []byte, results []DeployBatchResult) ([]byte, bool) {
	if results == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i := range results {
		r := &results[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		if r.Workload != nil {
			var ok bool
			if dst, ok = appendWorkload(append(dst, `"workload":`...), r.Workload); !ok {
				return dst, false
			}
		}
		if r.Error != nil {
			if r.Workload != nil {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendJSON(append(dst, `"error":`...), r.Error); err != nil {
				return dst, false
			}
			dst = dst[:len(dst)-1] // the encoder's newline
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), true
}

func appendEvent(dst []byte, e *LifecycleEvent) []byte {
	dst = appendField(dst, `{"workload":`, e.Workload)
	if e.Tenant != "" {
		dst = appendField(dst, `,"tenant":`, e.Tenant)
	}
	if e.From != "" {
		dst = appendField(dst, `,"from":`, e.From)
	}
	dst = appendField(dst, `,"state":`, e.State)
	if e.Node != "" {
		dst = appendField(dst, `,"node":`, e.Node)
	}
	if e.Detail != "" {
		dst = appendField(dst, `,"detail":`, e.Detail)
	}
	if e.AtMs != 0 {
		dst = append(dst, `,"atMs":`...)
		dst = strconv.AppendInt(dst, e.AtMs, 10)
	}
	return append(dst, '}')
}

// decoder is UnmarshalWire's fast path: a cursor over one document.
// Every step returns false on anything outside the shape AppendWire
// emits, and the caller then hands the whole document to
// json.Unmarshal.
type decoder struct {
	data []byte
	i    int
}

// decodeTop decodes one whole document, an object whose members field
// decodes, into *v, which is zero. If the fast path does not take all
// of it, *v is zeroed again for json.Unmarshal.
func decodeTop[T any](data []byte, v *T, field func(*decoder, *T, []byte) bool) bool {
	d := decoder{data: data}
	if object(&d, v, field) {
		if d.space(); d.i == len(d.data) {
			return true
		}
	}
	var zero T
	*v = zero
	return false
}

// object decodes an object into v, each member's value by field, which
// is false on a key it does not know. A repeated key leaves the fast
// path, since json.Unmarshal merges repeats.
func object[T any](d *decoder, v *T, field func(*decoder, *T, []byte) bool) bool {
	if !d.byte('{') {
		return false
	}
	var keys [8][]byte // more members than any codec type has fields leave the fast path
	for n := 0; ; n++ {
		if d.byte('}') {
			return true
		}
		if n == len(keys) || n > 0 && !d.byte(',') {
			return false
		}
		key, ok := d.rawString()
		if !ok || !d.byte(':') {
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

// array decodes an array of objects into a fresh non-nil slice, as
// json.Unmarshal does into a nil one.
func array[T any](d *decoder, dst *[]T, field func(*decoder, *T, []byte) bool) bool {
	if !d.byte('[') {
		return false
	}
	out := []T{}
	for n := 0; ; n++ {
		if d.byte(']') {
			*dst = out
			return true
		}
		if n > 0 && !d.byte(',') {
			return false
		}
		var zero T
		out = append(out, zero)
		if !object(d, &out[len(out)-1], field) {
			return false
		}
	}
}

func (d *decoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// byte consumes c, after any whitespace.
func (d *decoder) byte(c byte) bool {
	d.space()
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// rawString returns the bytes of a string with no escapes, no control
// characters and valid UTF-8 — the strings json.Unmarshal copies
// verbatim.
func (d *decoder) rawString() ([]byte, bool) {
	if !d.byte('"') {
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

func (d *decoder) string(dst *string) bool {
	s, ok := d.rawString()
	if ok {
		*dst = string(s)
	}
	return ok
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.i
	for d.i < len(d.data) && d.data[d.i] >= '0' && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// skip consumes the next byte if it is one of set.
func (d *decoder) skip(set string) {
	if d.i < len(d.data) && strings.IndexByte(set, d.data[d.i]) >= 0 {
		d.i++
	}
}

// number returns the JSON number literal at the cursor and whether it
// is an integer: no fraction, no exponent.
func (d *decoder) number() (lit []byte, integer, ok bool) {
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

// integer decodes an integer literal as json.Unmarshal does into an
// integer field of the given size; a fraction, an exponent or an
// out-of-range value leaves the fast path.
func (d *decoder) integer(bitSize int) (int64, bool) {
	lit, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bitSize)
	return n, err == nil
}

func (d *decoder) int(dst *int) bool {
	n, ok := d.integer(strconv.IntSize)
	*dst = int(n)
	return ok
}

func (d *decoder) int64(dst *int64) bool {
	n, ok := d.integer(64)
	*dst = n
	return ok
}

// float64 decodes a number literal with strconv.ParseFloat, as
// json.Unmarshal does; an out-of-range literal leaves the fast path.
func (d *decoder) float64(dst *float64) bool {
	lit, _, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func resourcesField(d *decoder, r *Resources, key []byte) bool {
	switch string(key) {
	case "cpuMilli":
		return d.int(&r.CPUMilli)
	case "memoryMB":
		return d.int(&r.MemoryMB)
	}
	return false
}

func specField(d *decoder, s *WorkloadSpec, key []byte) bool {
	switch string(key) {
	case "name":
		return d.string(&s.Name)
	case "tenant":
		return d.string(&s.Tenant)
	case "imageRef":
		return d.string(&s.ImageRef)
	case "isolation":
		return d.string(&s.Isolation)
	case "resources":
		return object(d, &s.Resources, resourcesField)
	case "placementPolicy":
		return d.string(&s.PlacementPolicy)
	case "region":
		return d.string(&s.Region)
	}
	return false
}

func workloadField(d *decoder, w *Workload, key []byte) bool {
	switch string(key) {
	case "spec":
		return object(d, &w.Spec, specField)
	case "node":
		return d.string(&w.Node)
	case "vmId":
		return d.string(&w.VMID)
	case "placedAtMs":
		return d.int64(&w.PlacedAtMs)
	case "strategy":
		return d.string(&w.Strategy)
	case "score":
		return d.float64(&w.Score)
	}
	return false
}

func deployRequestField(d *decoder, r *DeployRequest, key []byte) bool {
	return string(key) == "spec" && object(d, &r.Spec, specField)
}

func batchRequestField(d *decoder, r *DeployBatchRequest, key []byte) bool {
	return string(key) == "specs" && array(d, &r.Specs, specField)
}

func batchResponseField(d *decoder, r *DeployBatchResponse, key []byte) bool {
	return string(key) == "results" && array(d, &r.Results, resultField)
}

func resultField(d *decoder, r *DeployBatchResult, key []byte) bool {
	switch string(key) {
	case "workload":
		r.Workload = new(Workload)
		return object(d, r.Workload, workloadField)
	case "error":
		return d.wireError(&r.Error)
	}
	return false
}

func eventField(d *decoder, e *LifecycleEvent, key []byte) bool {
	switch string(key) {
	case "workload":
		return d.string(&e.Workload)
	case "tenant":
		return d.string(&e.Tenant)
	case "from":
		return d.string(&e.From)
	case "state":
		return d.string(&e.State)
	case "node":
		return d.string(&e.Node)
	case "detail":
		return d.string(&e.Detail)
	case "atMs":
		return d.int64(&e.AtMs)
	}
	return false
}

// maxRawDepth bounds the nesting of a WireError decoded on its own.
// json.Unmarshal limits a whole document's depth, and the element sits
// a few levels deep in it, so only shallow elements stay on the fast
// path.
const maxRawDepth = 64

// wireError decodes a WireError element with encoding/json: the
// element's extent is found here, and json.Unmarshal validates it.
func (d *decoder) wireError(dst **WireError) bool {
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
			if depth++; depth > maxRawDepth {
				return false
			}
		case '}', ']':
			if depth--; depth <= 0 {
				we := new(WireError)
				if depth < 0 || d.data[start] != '{' || json.Unmarshal(d.data[start:d.i], we) != nil {
					return false
				}
				*dst = we
				return true
			}
		}
	}
	return false
}
