package api

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"genio/internal/jsoncodec"
)

// wireSamples builds one value of every codec type from a few fuzzed
// scalars, so empty strings exercise omitempty and odd bytes exercise
// escaping.
func wireSamples(s1, s2 string, n int64, score float64) []any {
	spec := WorkloadSpec{Name: s1, Tenant: s2, ImageRef: s1 + "/" + s2, Isolation: s2,
		Resources: Resources{CPUMilli: int(n), MemoryMB: int(-n)}, PlacementPolicy: s1, Region: s2}
	wl := Workload{Spec: spec, Node: s2, VMID: s1, PlacedAtMs: n, Strategy: s1, Score: score}
	we := &WireError{Code: s1, Message: s2, Workload: s1,
		Verdicts: nil, Requested: &Resources{CPUMilli: int(n)}, Wrapped: &WireError{Code: s2}}
	return []any{
		&spec, &WorkloadSpec{},
		&wl, &Workload{}, (*Workload)(nil),
		&DeployRequest{Spec: spec}, &DeployRequest{},
		&DeployBatchRequest{Specs: []WorkloadSpec{spec, {}}}, &DeployBatchRequest{Specs: []WorkloadSpec{}}, &DeployBatchRequest{},
		&DeployBatchResponse{Results: []DeployBatchResult{{Workload: &wl}, {Error: we}, {Workload: &wl, Error: we}, {}}},
		&DeployBatchResponse{Results: []DeployBatchResult{}}, &DeployBatchResponse{},
		&LifecycleEvent{Workload: s1, Tenant: s2, From: s1, State: s2, Node: s1, Detail: s2, AtMs: n},
		&LifecycleEvent{},
	}
}

// wireTargets returns a fresh zero value of every type UnmarshalWire
// decodes without reflection.
func wireTargets() []any {
	return []any{new(Workload), new(DeployRequest),
		new(DeployBatchRequest), new(DeployBatchResponse), new(LifecycleEvent)}
}

// FuzzWireCodec: the codec has encoding/json's semantics. Every
// encoder writes json.Encoder's bytes (or fails as it does), and every
// decoder gives json.Unmarshal's value and error on arbitrary bytes.
func FuzzWireCodec(f *testing.F) {
	for _, seed := range []struct {
		data   string
		s1, s2 string
		n      int64
		score  float64
	}{
		{`{"spec":{"name":"web","tenant":"acme","imageRef":"acme/analytics:2.0.1","isolation":"soft","resources":{"cpuMilli":200,"memoryMB":256}}}`,
			"web", "acme", 200, 0.5},
		{`{"specs":[{"name":"a","tenant":"t","imageRef":"r","resources":{"cpuMilli":1,"memoryMB":2},"placementPolicy":"spread","region":"eu"},{"name":"b","tenant":"t","imageRef":"r","resources":{"cpuMilli":0,"memoryMB":0}}]}`,
			"", "", 0, 0},
		{`{"results":[{"workload":{"spec":{"name":"a","tenant":"t","imageRef":"r","resources":{"cpuMilli":1,"memoryMB":2}},"node":"olt-01","vmId":"vm-1","placedAtMs":1700000000000,"strategy":"binpack","score":0.75}},{"error":{"code":"admission-denied","message":"m","verdicts":[{"scanner":"sast","passed":false}]}},{}]}`,
			"a<b>&c", "\u2028\u2029", -1, 0.25},
		{`{"spec":{"name":"n","tenant":"t","imageRef":"r","resources":{"cpuMilli":1,"memoryMB":1}},"node":"x","vmId":"y","score":1e2}`,
			"\xff\xfe", "caf\u00e9", 1 << 62, 1e21},
		{`{"workload":"w","tenant":"t","from":"scanning","state":"placed","node":"olt-01","detail":"d","atMs":42}`,
			"tab\there\n", "quote\"back\\slash", math.MinInt64, 1e-7},
		{`{"spec":{"name":"esc\u0041ped","tenant":"\ud83d\ude00"}}`, "\x00\x1f\x7f", "<script>", 5, math.Inf(1)},
		{`{"spec":{"name":"<>&","tenant":"\xff"}}`, "", "", 0, math.NaN()},
		{`{"spec":null}`, "a", "", 0, 1.0},
		{`null`, "", "b", 0, 123456789.125},
		{`{"spec":{"name":"a","name":"b"}}`, "", "", 0, 0},
		{`{"specs":[{"name":"a","tenant":"x"}],"specs":[{"name":"b"}]}`, "", "", 0, 0},
		{`{"results":[{"workload":{"node":"a"},"workload":{"vmId":"b"}}]}`, "", "", 0, 0},
		{`{"spec":{"NAME":"a","Tenant":"b"}}`, "", "", 0, 0},
		{`{"spec":{"resources":{"cpuMilli":1e2}}}`, "", "", 0, 0},
		{`{"spec":{"resources":{"cpuMilli":1.0}}}`, "", "", 0, 0},
		{`{"spec":{"resources":{"cpuMilli":99999999999999999999}}}`, "", "", 0, 0},
		{`{"spec":{"resources":{"memoryMB":-0}}}`, "", "", 0, 0},
		{`{"spec":{"name":"x"},"extra":true}`, "", "", 0, 0},
		{`{"node":"a","score":-0}`, "", "", 0, math.Copysign(0, -1)},
		{`{"score":1e400}`, "", "", 0, 0},
		{`{"specs":[]} `, "", "", 0, 0},
		{`{"results":[{"error":{"code":"x","wrapped":{"code":"y"}}},{"workload":null}]}`, "", "", 0, 0},
		{`{"results":[{"error":{"code":"x"` + "\n" + `}}]}trailing`, "", "", 0, 0},
		{" {\"state\" : \"placed\" , \"atMs\" : -7 }\r\n", "", "", 0, 0},
	} {
		f.Add([]byte(seed.data), seed.s1, seed.s2, seed.n, seed.score)
	}
	f.Fuzz(func(t *testing.T, data []byte, s1, s2 string, n int64, score float64) {
		for _, v := range wireSamples(s1, s2, n, score) {
			var want bytes.Buffer
			wantErr := json.NewEncoder(&want).Encode(v)
			got, err := AppendWire([]byte("prefix"), v)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%T: AppendWire error %v, json.Encoder error %v", v, err, wantErr)
			}
			if err != nil {
				if string(got) != "prefix" {
					t.Fatalf("%T: failed encode extended dst to %q", v, got)
				}
				continue
			}
			if !bytes.Equal(got[len("prefix"):], want.Bytes()) {
				t.Fatalf("%T:\n got %q\nwant %q", v, got[len("prefix"):], want.Bytes())
			}
		}
		targets, refs := wireTargets(), wireTargets()
		for i := range targets {
			err := UnmarshalWire(data, targets[i])
			wantErr := json.Unmarshal(data, refs[i])
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%T on %q: UnmarshalWire error %v, json.Unmarshal error %v", targets[i], data, err, wantErr)
			}
			if !reflect.DeepEqual(targets[i], refs[i]) {
				t.Fatalf("%T on %q:\n got %+v\nwant %+v", targets[i], data, targets[i], refs[i])
			}
			// DeepEqual takes -0 for 0; the encoding does not.
			g, gerr := json.Marshal(targets[i])
			w, werr := json.Marshal(refs[i])
			if gerr != nil || werr != nil || !bytes.Equal(g, w) {
				t.Fatalf("%T on %q: decoded values encode as %s (%v) and %s (%v)", targets[i], data, g, gerr, w, werr)
			}
		}
	})
}

// TestUnmarshalWireFastPathTakesCanonicalBodies: what AppendWire emits
// for ordinary values decodes without leaving the fast path, so the
// deploy bodies never pay for reflection.
func TestUnmarshalWireFastPathTakesCanonicalBodies(t *testing.T) {
	spec := WorkloadSpec{Name: "web-1", Tenant: "acme", ImageRef: "acme/analytics:2.0.1", Isolation: "soft",
		Resources: Resources{CPUMilli: 200, MemoryMB: 256}, PlacementPolicy: "spread", Region: "région-a"}
	wl := Workload{Spec: spec, Node: "olt-01", VMID: "vm-7", PlacedAtMs: 1700000000123, Strategy: "binpack", Score: -0.125}
	we := &WireError{Code: CodeAdmissionDenied, Message: "denied <sast>", Workload: "web-2"}
	for _, tc := range []struct {
		v    any
		fast func(data []byte) bool
	}{
		{&wl, func(b []byte) bool { return jsoncodec.Decode(b, new(Workload), workloadField) }},
		{&DeployRequest{Spec: spec}, func(b []byte) bool { return jsoncodec.Decode(b, new(DeployRequest), deployRequestField) }},
		{&DeployBatchRequest{Specs: []WorkloadSpec{spec, spec}}, func(b []byte) bool {
			return jsoncodec.Decode(b, new(DeployBatchRequest), batchRequestField)
		}},
		{&DeployBatchResponse{Results: []DeployBatchResult{{Workload: &wl}, {Error: we}}}, func(b []byte) bool {
			return jsoncodec.Decode(b, new(DeployBatchResponse), batchResponseField)
		}},
		{&LifecycleEvent{Workload: "web-1", Tenant: "acme", From: "scanning", State: "placed", Node: "olt-01", AtMs: 9},
			func(b []byte) bool { return jsoncodec.Decode(b, new(LifecycleEvent), eventField) }},
	} {
		data, err := AppendWire(nil, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if !tc.fast(data) {
			t.Errorf("%T: fast path refused its own encoding %s", tc.v, data)
		}
		back := reflect.New(reflect.TypeOf(tc.v).Elem()).Interface()
		if err := UnmarshalWire(data, back); err != nil || !reflect.DeepEqual(back, tc.v) {
			t.Errorf("%T: round trip gave %+v, %v", tc.v, back, err)
		}
	}
}

// TestAppendWireCoversEveryField: every exported field of every codec
// type, set to a non-zero value, encodes as encoding/json encodes it. A
// field added to a deploy body that the codec does not write fails
// here, omitempty or not.
func TestAppendWireCoversEveryField(t *testing.T) {
	for _, v := range []any{new(WorkloadSpec), new(Workload), new(DeployRequest),
		new(DeployBatchRequest), new(DeployBatchResponse), new(LifecycleEvent)} {
		fill(reflect.ValueOf(v).Elem(), 0)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		got, err := AppendWire(nil, v)
		if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%T:\n got %s (%v)\nwant %s", v, got, err, want.Bytes())
		}
	}
}

// fill sets every exported field reachable from v to a non-zero value;
// pointers nest a few levels deep (WireError wraps itself).
func fill(v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		if depth < 3 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), depth+1)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0), depth)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), depth)
			}
		}
	}
}
