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
//     shape AppendWire emits: exact keys, each once, no null, no
//     unknown fields, numbers that fit their fields, strings whose
//     escapes the kernel decodes, decoding into a zero value. Anything
//     else goes to json.Unmarshal.
//
// This file holds only the deploy bodies' field lists. The schema-free
// kernel under them — string and float formatting, the decoder cursor,
// the object and array walkers — is internal/jsoncodec, which the WAL
// codec (internal/persist) shares. FuzzWireCodec holds both rules
// against encoding/json. WireError elements of a batch response keep
// encoding/json in both directions.

import (
	"encoding/json"
	"math"
	"strconv"

	"genio/internal/jsoncodec"
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
		return jsoncodec.AppendJSON(dst, v)
	}
	if !ok {
		// A non-finite score: encoding/json reports the error.
		return jsoncodec.AppendJSON(dst, v)
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
		ok = v != nil && zeroWorkload(v) && jsoncodec.Decode(data, v, workloadField)
	case *DeployRequest:
		ok = v != nil && *v == DeployRequest{} && jsoncodec.Decode(data, v, deployRequestField)
	case *DeployBatchRequest:
		ok = v != nil && v.Specs == nil && jsoncodec.Decode(data, v, batchRequestField)
	case *DeployBatchResponse:
		ok = v != nil && v.Results == nil && jsoncodec.Decode(data, v, batchResponseField)
	case *LifecycleEvent:
		ok = v != nil && *v == LifecycleEvent{} && jsoncodec.Decode(data, v, eventField)
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

func appendSpec(dst []byte, s *WorkloadSpec) []byte {
	dst = jsoncodec.AppendField(dst, `{"name":`, s.Name)
	dst = jsoncodec.AppendField(dst, `,"tenant":`, s.Tenant)
	dst = jsoncodec.AppendField(dst, `,"imageRef":`, s.ImageRef)
	if s.Isolation != "" {
		dst = jsoncodec.AppendField(dst, `,"isolation":`, s.Isolation)
	}
	dst = append(dst, `,"resources":{"cpuMilli":`...)
	dst = strconv.AppendInt(dst, int64(s.Resources.CPUMilli), 10)
	dst = append(dst, `,"memoryMB":`...)
	dst = strconv.AppendInt(dst, int64(s.Resources.MemoryMB), 10)
	dst = append(dst, '}')
	if s.PlacementPolicy != "" {
		dst = jsoncodec.AppendField(dst, `,"placementPolicy":`, s.PlacementPolicy)
	}
	if s.Region != "" {
		dst = jsoncodec.AppendField(dst, `,"region":`, s.Region)
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
	dst = jsoncodec.AppendField(dst, `,"node":`, w.Node)
	dst = jsoncodec.AppendField(dst, `,"vmId":`, w.VMID)
	if w.PlacedAtMs != 0 {
		dst = append(dst, `,"placedAtMs":`...)
		dst = strconv.AppendInt(dst, w.PlacedAtMs, 10)
	}
	if w.Strategy != "" {
		dst = jsoncodec.AppendField(dst, `,"strategy":`, w.Strategy)
	}
	if w.Score != 0 {
		if !jsoncodec.Finite(w.Score) {
			return dst, false
		}
		dst = jsoncodec.AppendFloat(append(dst, `,"score":`...), w.Score)
	}
	return append(dst, '}'), true
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
			if dst, err = jsoncodec.AppendJSON(append(dst, `"error":`...), r.Error); err != nil {
				return dst, false
			}
			dst = dst[:len(dst)-1] // the encoder's newline
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), true
}

func appendEvent(dst []byte, e *LifecycleEvent) []byte {
	dst = jsoncodec.AppendField(dst, `{"workload":`, e.Workload)
	if e.Tenant != "" {
		dst = jsoncodec.AppendField(dst, `,"tenant":`, e.Tenant)
	}
	if e.From != "" {
		dst = jsoncodec.AppendField(dst, `,"from":`, e.From)
	}
	dst = jsoncodec.AppendField(dst, `,"state":`, e.State)
	if e.Node != "" {
		dst = jsoncodec.AppendField(dst, `,"node":`, e.Node)
	}
	if e.Detail != "" {
		dst = jsoncodec.AppendField(dst, `,"detail":`, e.Detail)
	}
	if e.AtMs != 0 {
		dst = append(dst, `,"atMs":`...)
		dst = strconv.AppendInt(dst, e.AtMs, 10)
	}
	return append(dst, '}')
}

func resourcesField(d *jsoncodec.Decoder, r *Resources, key []byte) bool {
	switch string(key) {
	case "cpuMilli":
		return d.Int(&r.CPUMilli)
	case "memoryMB":
		return d.Int(&r.MemoryMB)
	}
	return false
}

func specField(d *jsoncodec.Decoder, s *WorkloadSpec, key []byte) bool {
	switch string(key) {
	case "name":
		return d.String(&s.Name)
	case "tenant":
		return d.String(&s.Tenant)
	case "imageRef":
		return d.String(&s.ImageRef)
	case "isolation":
		return d.String(&s.Isolation)
	case "resources":
		return jsoncodec.Object(d, &s.Resources, resourcesField)
	case "placementPolicy":
		return d.String(&s.PlacementPolicy)
	case "region":
		return d.String(&s.Region)
	}
	return false
}

func workloadField(d *jsoncodec.Decoder, w *Workload, key []byte) bool {
	switch string(key) {
	case "spec":
		return jsoncodec.Object(d, &w.Spec, specField)
	case "node":
		return d.String(&w.Node)
	case "vmId":
		return d.String(&w.VMID)
	case "placedAtMs":
		return d.Int64(&w.PlacedAtMs)
	case "strategy":
		return d.String(&w.Strategy)
	case "score":
		return d.Float64(&w.Score)
	}
	return false
}

func deployRequestField(d *jsoncodec.Decoder, r *DeployRequest, key []byte) bool {
	return string(key) == "spec" && jsoncodec.Object(d, &r.Spec, specField)
}

func batchRequestField(d *jsoncodec.Decoder, r *DeployBatchRequest, key []byte) bool {
	return string(key) == "specs" && jsoncodec.Array(d, &r.Specs, specField)
}

func batchResponseField(d *jsoncodec.Decoder, r *DeployBatchResponse, key []byte) bool {
	return string(key) == "results" && jsoncodec.Array(d, &r.Results, resultField)
}

func resultField(d *jsoncodec.Decoder, r *DeployBatchResult, key []byte) bool {
	switch string(key) {
	case "workload":
		r.Workload = new(Workload)
		return jsoncodec.Object(d, r.Workload, workloadField)
	case "error":
		return wireError(d, &r.Error)
	}
	return false
}

func eventField(d *jsoncodec.Decoder, e *LifecycleEvent, key []byte) bool {
	switch string(key) {
	case "workload":
		return d.String(&e.Workload)
	case "tenant":
		return d.String(&e.Tenant)
	case "from":
		return d.String(&e.From)
	case "state":
		return d.String(&e.State)
	case "node":
		return d.String(&e.Node)
	case "detail":
		return d.String(&e.Detail)
	case "atMs":
		return d.Int64(&e.AtMs)
	}
	return false
}

// maxRawDepth bounds the nesting of a WireError decoded on its own.
// json.Unmarshal limits a whole document's depth, and the element sits
// a few levels deep in it, so only shallow elements stay on the fast
// path.
const maxRawDepth = 64

// wireError decodes a WireError element with encoding/json: the
// element's extent is found by the cursor, and json.Unmarshal
// validates it.
func wireError(d *jsoncodec.Decoder, dst **WireError) bool {
	raw, ok := d.RawObject(maxRawDepth)
	if !ok {
		return false
	}
	we := new(WireError)
	if json.Unmarshal(raw, we) != nil {
		return false
	}
	*dst = we
	return true
}
