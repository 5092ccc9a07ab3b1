package persist

// The WAL codec. A restart decodes the whole snapshot and every log
// line, and a snapshot encodes the whole state; through reflection that
// was most of a recovery's CPU. appendRecord and appendState encode
// Record and State without reflection, and decodeRecord and decodeState
// decode them, on the kernel api's wire codec uses (internal/jsoncodec).
//
// There is one semantics, encoding/json's, so files on disk do not
// change and data directories written before the codec open unchanged:
//
//   - appendRecord writes exactly the bytes json.Encoder.Encode(rec)
//     writes (a WAL line, newline included); appendState exactly the
//     bytes json.Marshal(st) writes (a snapshot file).
//   - decodeRecord and decodeState give the value, and the success or
//     failure, json.Unmarshal gives on every input. The fast path takes
//     the shape the encoders emit; unknown, repeated or case-folded
//     keys, null, surrogate escapes, invalid UTF-8 and numbers that do
//     not fit go to json.Unmarshal.
//
// FuzzWALCodec holds both rules against encoding/json, and
// TestWALCodecCoversEveryField fails when a field is added to a
// persisted type the codec does not write.

import (
	"encoding/json"
	"slices"
	"strconv"

	"genio/internal/jsoncodec"
	"genio/internal/orchestrator"
)

// appendRecord appends rec's WAL line to dst. On error (a non-finite
// workload score) dst is returned unextended.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	out := strconv.AppendUint(append(dst, `{"lsn":`...), rec.LSN, 10)
	out = jsoncodec.AppendField(out, `,"kind":`, rec.Kind)
	if rec.Node != "" {
		out = jsoncodec.AppendField(out, `,"node":`, rec.Node)
	}
	if rec.Capacity != nil {
		out = appendResources(append(out, `,"capacity":`...), rec.Capacity)
	}
	if rec.Cordoned {
		out = append(out, `,"cordoned":true`...)
	}
	if rec.Workload != nil {
		var ok bool
		if out, ok = appendWorkload(append(out, `,"workload":`...), rec.Workload); !ok {
			return jsoncodec.AppendJSON(dst, rec)
		}
	}
	if rec.VMSeq != 0 {
		out = strconv.AppendInt(append(out, `,"vmSeq":`...), rec.VMSeq, 10)
	}
	if rec.Name != "" {
		out = jsoncodec.AppendField(out, `,"name":`, rec.Name)
	}
	if rec.Tenant != "" {
		out = jsoncodec.AppendField(out, `,"tenant":`, rec.Tenant)
	}
	if rec.Quota != nil {
		out = appendResources(append(out, `,"quota":`...), rec.Quota)
	}
	if rec.Key != "" {
		out = jsoncodec.AppendField(out, `,"key":`, rec.Key)
	}
	if v := rec.Verdict; v != nil {
		out = jsoncodec.AppendField(out, `,"verdict":{"digest":`, v.Digest)
		out = append(appendStrings(append(out, `,"controllers":`...), v.Controllers), '}')
	}
	if rec.Incident != nil {
		out = appendIncident(append(out, `,"incident":`...), rec.Incident)
	}
	return append(out, '}', '\n'), nil
}

// appendState appends st's snapshot encoding to dst. On error (a
// non-finite workload score) dst is returned unextended.
func appendState(dst []byte, st *State) ([]byte, error) {
	out := strconv.AppendUint(append(dst, `{"lsn":`...), st.LSN, 10)
	out, ok := appendCluster(append(out, `,"cluster":`...), &st.Cluster)
	if !ok {
		buf, err := json.Marshal(st)
		if err != nil {
			return dst, err
		}
		return append(dst, buf...), nil
	}
	if len(st.Incidents) > 0 {
		out = append(out, `,"incidents":[`...)
		for i := range st.Incidents {
			if i > 0 {
				out = append(out, ',')
			}
			out = appendIncident(out, &st.Incidents[i])
		}
		out = append(out, ']')
	}
	if st.IncidentSeq != 0 {
		out = strconv.AppendUint(append(out, `,"incidentSeq":`...), st.IncidentSeq, 10)
	}
	return append(out, '}'), nil
}

// member appends an omitempty member's key, with the comma it needs
// when it is not the first member of the object opened at start.
func member(dst []byte, start int, key string) []byte {
	if len(dst) > start {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

func appendCluster(dst []byte, c *orchestrator.ClusterState) ([]byte, bool) {
	dst = append(dst, '{')
	start := len(dst)
	if len(c.Nodes) > 0 {
		dst = append(member(dst, start, `"nodes":`), '[')
		for i := range c.Nodes {
			n := &c.Nodes[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsoncodec.AppendField(dst, `{"name":`, n.Name)
			dst = appendResources(append(dst, `,"capacity":`...), &n.Capacity)
			if n.Cordoned {
				dst = append(dst, `,"cordoned":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(c.Workloads) > 0 {
		dst = append(member(dst, start, `"workloads":`), '[')
		for i := range c.Workloads {
			if i > 0 {
				dst = append(dst, ',')
			}
			var ok bool
			if dst, ok = appendWorkload(dst, &c.Workloads[i]); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	if len(c.Quotas) > 0 {
		// encoding/json writes map members in key order.
		tenants := make([]string, 0, len(c.Quotas))
		for t := range c.Quotas {
			tenants = append(tenants, t)
		}
		slices.Sort(tenants)
		dst = append(member(dst, start, `"quotas":`), '{')
		for i, t := range tenants {
			if i > 0 {
				dst = append(dst, ',')
			}
			q := c.Quotas[t]
			dst = appendResources(append(jsoncodec.AppendString(dst, t), ':'), &q)
		}
		dst = append(dst, '}')
	}
	if len(c.Verdicts) > 0 {
		dst = appendStrings(member(dst, start, `"verdicts":`), c.Verdicts)
	}
	if len(c.Cleared) > 0 {
		digests := make([]string, 0, len(c.Cleared))
		for d := range c.Cleared {
			digests = append(digests, d)
		}
		slices.Sort(digests)
		dst = append(member(dst, start, `"cleared":`), '{')
		for i, d := range digests {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendStrings(append(jsoncodec.AppendString(dst, d), ':'), c.Cleared[d])
		}
		dst = append(dst, '}')
	}
	if c.VMSeq != 0 {
		dst = strconv.AppendInt(member(dst, start, `"vmSeq":`), c.VMSeq, 10)
	}
	return append(dst, '}'), true
}

// appendStrings appends ss as encoding/json does: null when nil.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsoncodec.AppendString(dst, s)
	}
	return append(dst, ']')
}

func appendResources(dst []byte, r *orchestrator.Resources) []byte {
	dst = strconv.AppendInt(append(dst, `{"cpuMilli":`...), int64(r.CPUMilli), 10)
	dst = strconv.AppendInt(append(dst, `,"memoryMB":`...), int64(r.MemoryMB), 10)
	return append(dst, '}')
}

// appendWorkload is false on a NaN or infinite score, which
// encoding/json refuses to encode.
func appendWorkload(dst []byte, w *orchestrator.Workload) ([]byte, bool) {
	s := &w.Spec
	dst = jsoncodec.AppendField(dst, `{"spec":{"name":`, s.Name)
	dst = jsoncodec.AppendField(dst, `,"tenant":`, s.Tenant)
	dst = jsoncodec.AppendField(dst, `,"imageRef":`, s.ImageRef)
	dst = strconv.AppendInt(append(dst, `,"isolation":`...), int64(s.Isolation), 10)
	dst = appendResources(append(dst, `,"resources":`...), &s.Resources)
	if s.PlacementPolicy != "" {
		dst = jsoncodec.AppendField(dst, `,"placementPolicy":`, s.PlacementPolicy)
	}
	if s.Region != "" {
		dst = jsoncodec.AppendField(dst, `,"region":`, s.Region)
	}
	dst = jsoncodec.AppendField(dst, `},"node":`, w.Node)
	dst = jsoncodec.AppendField(dst, `,"vmId":`, w.VMID)
	if w.PlacedAtMs != 0 {
		dst = strconv.AppendInt(append(dst, `,"placedAtMs":`...), w.PlacedAtMs, 10)
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

func appendIncident(dst []byte, in *Incident) []byte {
	dst = jsoncodec.AppendField(dst, `{"source":`, in.Source)
	if in.Workload != "" {
		dst = jsoncodec.AppendField(dst, `,"workload":`, in.Workload)
	}
	dst = jsoncodec.AppendField(dst, `,"detail":`, in.Detail)
	dst = strconv.AppendBool(append(dst, `,"blocked":`...), in.Blocked)
	if in.AtMs != 0 {
		dst = strconv.AppendInt(append(dst, `,"atMs":`...), in.AtMs, 10)
	}
	if in.Seq != 0 {
		dst = strconv.AppendUint(append(dst, `,"seq":`...), in.Seq, 10)
	}
	return append(dst, '}')
}

// decodeRecord decodes one WAL line into rec, which is zero, as
// json.Unmarshal does.
func decodeRecord(data []byte, rec *Record) error {
	if jsoncodec.Decode(data, rec, recordField) {
		return nil
	}
	return json.Unmarshal(data, rec)
}

// decodeState decodes a snapshot into st, which is zero, as
// json.Unmarshal does.
func decodeState(data []byte, st *State) error {
	if jsoncodec.Decode(data, st, stateField) {
		return nil
	}
	return json.Unmarshal(data, st)
}

func recordField(d *jsoncodec.Decoder, r *Record, key []byte) bool {
	switch string(key) {
	case "lsn":
		return d.Uint64(&r.LSN)
	case "kind":
		return d.String(&r.Kind)
	case "node":
		return d.String(&r.Node)
	case "capacity":
		r.Capacity = new(orchestrator.Resources)
		return jsoncodec.Object(d, r.Capacity, resourcesField)
	case "cordoned":
		return d.Bool(&r.Cordoned)
	case "workload":
		r.Workload = new(orchestrator.Workload)
		return jsoncodec.Object(d, r.Workload, workloadField)
	case "vmSeq":
		return d.Int64(&r.VMSeq)
	case "name":
		return d.String(&r.Name)
	case "tenant":
		return d.String(&r.Tenant)
	case "quota":
		r.Quota = new(orchestrator.Resources)
		return jsoncodec.Object(d, r.Quota, resourcesField)
	case "key":
		return d.String(&r.Key)
	case "verdict":
		r.Verdict = new(orchestrator.VerdictCommit)
		return jsoncodec.Object(d, r.Verdict, verdictField)
	case "incident":
		r.Incident = new(Incident)
		return jsoncodec.Object(d, r.Incident, incidentField)
	}
	return false
}

func stateField(d *jsoncodec.Decoder, st *State, key []byte) bool {
	switch string(key) {
	case "lsn":
		return d.Uint64(&st.LSN)
	case "cluster":
		return jsoncodec.Object(d, &st.Cluster, clusterField)
	case "incidents":
		return jsoncodec.Array(d, &st.Incidents, incidentField)
	case "incidentSeq":
		return d.Uint64(&st.IncidentSeq)
	}
	return false
}

func clusterField(d *jsoncodec.Decoder, c *orchestrator.ClusterState, key []byte) bool {
	switch string(key) {
	case "nodes":
		return jsoncodec.Array(d, &c.Nodes, nodeField)
	case "workloads":
		return jsoncodec.Array(d, &c.Workloads, workloadField)
	case "quotas":
		return jsoncodec.Map(d, &c.Quotas, resourcesField)
	case "verdicts":
		return d.Strings(&c.Verdicts)
	case "cleared":
		return jsoncodec.MapOf(d, &c.Cleared, (*jsoncodec.Decoder).Strings)
	case "vmSeq":
		return d.Int64(&c.VMSeq)
	}
	return false
}

func nodeField(d *jsoncodec.Decoder, n *orchestrator.NodeState, key []byte) bool {
	switch string(key) {
	case "name":
		return d.String(&n.Name)
	case "capacity":
		return jsoncodec.Object(d, &n.Capacity, resourcesField)
	case "cordoned":
		return d.Bool(&n.Cordoned)
	}
	return false
}

func resourcesField(d *jsoncodec.Decoder, r *orchestrator.Resources, key []byte) bool {
	switch string(key) {
	case "cpuMilli":
		return d.Int(&r.CPUMilli)
	case "memoryMB":
		return d.Int(&r.MemoryMB)
	}
	return false
}

func specField(d *jsoncodec.Decoder, s *orchestrator.WorkloadSpec, key []byte) bool {
	switch string(key) {
	case "name":
		return d.String(&s.Name)
	case "tenant":
		return d.String(&s.Tenant)
	case "imageRef":
		return d.String(&s.ImageRef)
	case "isolation":
		return d.Int((*int)(&s.Isolation))
	case "resources":
		return jsoncodec.Object(d, &s.Resources, resourcesField)
	case "placementPolicy":
		return d.String(&s.PlacementPolicy)
	case "region":
		return d.String(&s.Region)
	}
	return false
}

func workloadField(d *jsoncodec.Decoder, w *orchestrator.Workload, key []byte) bool {
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

func verdictField(d *jsoncodec.Decoder, v *orchestrator.VerdictCommit, key []byte) bool {
	switch string(key) {
	case "digest":
		return d.String(&v.Digest)
	case "controllers":
		return d.Strings(&v.Controllers)
	}
	return false
}

func incidentField(d *jsoncodec.Decoder, in *Incident, key []byte) bool {
	switch string(key) {
	case "source":
		return d.String(&in.Source)
	case "workload":
		return d.String(&in.Workload)
	case "detail":
		return d.String(&in.Detail)
	case "blocked":
		return d.Bool(&in.Blocked)
	case "atMs":
		return d.Int64(&in.AtMs)
	case "seq":
		return d.Uint64(&in.Seq)
	}
	return false
}
