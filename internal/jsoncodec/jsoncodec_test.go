package jsoncodec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sample has one field of every kind the Decoder reads.
type sample struct {
	S    string            `json:"s"`
	I    int               `json:"i"`
	I64  int64             `json:"i64"`
	U    uint64            `json:"u"`
	F    float64           `json:"f"`
	B    bool              `json:"b"`
	L    []string          `json:"l"`
	Kids []sample          `json:"kids"`
	M    map[string]sample `json:"m"`
	N    map[string]int    `json:"n"`
}

func sampleField(d *Decoder, v *sample, key []byte) bool {
	switch string(key) {
	case "s":
		return d.String(&v.S)
	case "i":
		return d.Int(&v.I)
	case "i64":
		return d.Int64(&v.I64)
	case "u":
		return d.Uint64(&v.U)
	case "f":
		return d.Float64(&v.F)
	case "b":
		return d.Bool(&v.B)
	case "l":
		return d.Strings(&v.L)
	case "kids":
		return Array(d, &v.Kids, sampleField)
	case "m":
		return Map(d, &v.M, sampleField)
	case "n":
		return MapOf(d, &v.N, (*Decoder).Int)
	}
	return false
}

// checkDecode holds the fast path to json.Unmarshal on data: where it
// takes the document, json.Unmarshal accepts it and decodes the same
// value; where it does not, it leaves *v zero. It reports whether the
// fast path took the document.
func checkDecode(t *testing.T, data []byte) bool {
	t.Helper()
	var fast sample
	ok := Decode(data, &fast, sampleField)
	var ref sample
	err := json.Unmarshal(data, &ref)
	switch {
	case ok && err != nil:
		t.Fatalf("%q: fast path took a document json.Unmarshal refuses: %v", data, err)
	case ok && !reflect.DeepEqual(fast, ref):
		t.Fatalf("%q: fast path %+v, json.Unmarshal %+v", data, fast, ref)
	case !ok && !reflect.DeepEqual(fast, sample{}):
		t.Fatalf("%q: fast path refused but left %+v", data, fast)
	}
	return ok
}

// wide takes any key, so an object can have as many distinct members
// as a test needs.
type wide map[string]int

func wideField(d *Decoder, v *wide, key []byte) bool {
	var n int
	if !d.Int(&n) {
		return false
	}
	if *v == nil {
		*v = wide{}
	}
	(*v)[string(key)] = n
	return true
}

func wideDoc(members int) []byte {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < members; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"k%d":%d`, i, i)
	}
	b.WriteByte('}')
	return []byte(b.String())
}

var decodeCases = []struct {
	doc  string
	fast bool
}{
	{`{}`, true},
	{` { "s" : "plain" , "b" : true } `, true},
	{`{"s":"café \"q\" \\ \/ \b\f\n\r\t","b":false}`, true},
	{`{"s":"naïve — ünïcode"}`, true},
	{`{"s":"😀"}`, true},
	{`{"s":"\ud83d\ude00"}`, false},       // a surrogate pair: json.Unmarshal pairs it
	{`{"s":"\ud800"}`, false},             // a lone surrogate: json.Unmarshal replaces it
	{`{"s":"bad \x"}`, false},             // not an escape
	{`{"s":"ctl ` + "\x01" + `"}`, false}, // a raw control character
	{`{"s":"` + "\xff" + `"}`, false},     // invalid UTF-8
	{`{"s":"\u00"}`, false},               // a short \u escape
	{`{"s":"a","s":"b"}`, false},          // a repeated key: json.Unmarshal keeps the last
	{`{"S":"upper"}`, false},              // json.Unmarshal matches keys case-insensitively
	{`{"unknown":1}`, false},
	{`{"k\u0065y":1}`, false}, // an escaped key
	{`{"i":-42,"i64":9223372036854775807,"u":18446744073709551615}`, true},
	{`{"i64":9223372036854775808}`, false}, // out of range
	{`{"u":-0}`, false},                    // a sign on an unsigned field
	{`{"i":1.0}`, false},                   // a fraction on an integer field
	{`{"i":1e2}`, false},                   // an exponent on an integer field
	{`{"i":01}`, false},                    // a leading zero
	{`{"i":-}`, false},
	{`{"f":-0.5e-7,"i":0}`, true},
	{`{"f":1.5E+3}`, true},
	{`{"f":1e400}`, false}, // out of float64 range
	{`{"f":1.}`, false},
	{`{"f":2e}`, false},
	{`{"b":null}`, false},
	{`{"b":tru}`, false},
	{`{"l":["a","b\n"],"kids":[{"s":"x"},{}]}`, true},
	{`{"l":[],"kids":[]}`, true},
	{`{"l":["a",]}`, false},
	{`{"l":["a" "b"]}`, false},
	{`{"kids":[{"s":"x"} {}]}`, false},
	{`{"m":{"a":{"i":1},"b":{}},"n":{"x":1,"y":2}}`, true},
	{`{"m":{"a":{},"a":{}}}`, false}, // a repeated map key
	{`{"n":{"x":1,}}`, false},
	{`{"i":1 "b":true}`, false},
	{`{"i":1} trailing`, false},
	{`[]`, false},
}

// TestDecoderMatchesEncodingJSON: each document either takes the fast
// path with json.Unmarshal's value or leaves it with *v zero, and every
// prefix of it, a truncated document, does the same.
func TestDecoderMatchesEncodingJSON(t *testing.T) {
	for _, c := range decodeCases {
		if got := checkDecode(t, []byte(c.doc)); got != c.fast {
			t.Errorf("%s: fast path took it = %v, want %v", c.doc, got, c.fast)
		}
		for n := 0; n < len(c.doc); n++ {
			checkDecode(t, []byte(c.doc[:n]))
		}
	}
}

// TestDecoderMemberLimit: an object of up to 16 members takes the fast
// path; one more member leaves it.
func TestDecoderMemberLimit(t *testing.T) {
	for _, members := range []int{maxMembers, maxMembers + 1} {
		doc := wideDoc(members)
		var fast wide
		ok := Decode(doc, &fast, wideField)
		var ref wide
		if err := json.Unmarshal(doc, &ref); err != nil {
			t.Fatal(err)
		}
		if want := members <= maxMembers; ok != want || ok && !reflect.DeepEqual(fast, ref) || !ok && fast != nil {
			t.Fatalf("%d members: fast path took it = %v (%v), want %v (%v)", members, ok, fast, want, ref)
		}
	}
}

// FuzzDecoderMatchesEncodingJSON is TestDecoderMatchesEncodingJSON's
// property over arbitrary bytes.
func FuzzDecoderMatchesEncodingJSON(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

// TestAppendMatchesEncodingJSON: AppendString, AppendField, AppendFloat
// and AppendJSON write the bytes encoding/json writes.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "plain", `"quoted" \ back`, "<a href='x'>&</a>",
		"\b\f\n\r\t\x00\x1f\x7f", "café", "line\u2028para\u2029", "bad \xff\xfe utf8", "😀"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
		if got, want := AppendField([]byte(`{"k":`), "", s), append([]byte(`{"k":`), want...); !bytes.Equal(got, want) {
			t.Errorf("AppendField(%q) = %s, want %s", s, got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.99e-7, 1e-7, 123456789,
		1e20, 1e21, -1e21, 1.5e300, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		want, _ := json.Marshal(f)
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
		if !Finite(f) {
			t.Errorf("Finite(%v) = false", f)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if Finite(f) {
			t.Errorf("Finite(%v) = true", f)
		}
	}

	v := sample{S: "<x>", F: 0.25, L: []string{"a"}, N: map[string]int{"b": 1, "a": 2}}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	got, err := AppendJSON([]byte("prefix"), v)
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
		t.Fatalf("AppendJSON = %q, %v; want prefix then %q", got, err, want.Bytes())
	}
	if got, err := AppendJSON([]byte("prefix"), math.NaN()); err == nil || string(got) != "prefix" {
		t.Fatalf("AppendJSON(NaN) = %q, %v; want prefix unextended and an error", got, err)
	}
}

// TestRawObject: RawObject finds the extent of the object at the
// cursor, strings with escaped quotes and brackets included, and
// refuses anything deeper than its limit, unterminated or not an
// object. It does not match bracket kinds: json.Unmarshal validates.
func TestRawObject(t *testing.T) {
	for _, c := range []struct {
		doc, want string
		depth     int
		ok        bool
	}{
		{` {"a":[1,{"b":"}\"]"}]} tail`, `{"a":[1,{"b":"}\"]"}]}`, 3, true},
		{`{"a":{"b":{}}}`, "", 2, false},
		{`{"a":1`, "", 4, false},
		{`[1]`, "", 4, false},
		{`]{}`, "", 4, false},
	} {
		d := Decoder{data: []byte(c.doc)}
		got, ok := d.RawObject(c.depth)
		if ok != c.ok || string(got) != c.want {
			t.Errorf("RawObject(%s, %d) = %q, %v; want %q, %v", c.doc, c.depth, got, ok, c.want, c.ok)
		}
	}
}
