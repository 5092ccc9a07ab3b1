package persist

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"genio/internal/jsoncodec"
	"genio/internal/orchestrator"
)

// codecSamples builds one value of every record shape and a snapshot
// state from a few fuzzed scalars, so empty strings exercise omitempty
// and odd bytes exercise escaping.
func codecSamples(s1, s2 string, n int64, score float64) ([]*Record, *State) {
	res := orchestrator.Resources{CPUMilli: int(n), MemoryMB: int(-n)}
	wl := orchestrator.Workload{
		Spec: orchestrator.WorkloadSpec{Name: s1, Tenant: s2, ImageRef: s1 + "/" + s2,
			Isolation: orchestrator.IsolationMode(n), Resources: res, PlacementPolicy: s1, Region: s2},
		Node: s2, VMID: s1, PlacedAtMs: n, Strategy: s1, Score: score,
	}
	in := Incident{Source: s1, Workload: s2, Detail: s1 + s2, Blocked: n%2 == 0, AtMs: n, Seq: uint64(n)}
	recs := []*Record{
		{LSN: uint64(n), Kind: KindNodeJoin, Node: s1, Capacity: &res},
		{LSN: 1, Kind: KindNodeCordon, Node: s2, Cordoned: n%2 == 0},
		{LSN: 2, Kind: KindPlace, Workload: &wl, VMSeq: n},
		{LSN: 3, Kind: KindStop, Name: s1},
		{LSN: 4, Kind: KindQuota, Tenant: s2, Quota: &res},
		{LSN: 5, Kind: KindVerdict, Key: s1 + "\x00" + s2},
		{LSN: 5, Kind: KindVerdict, Verdict: &orchestrator.VerdictCommit{Digest: s2, Controllers: []string{s1, s2 + s1}}},
		{LSN: 5, Kind: KindVerdict, Verdict: &orchestrator.VerdictCommit{Digest: s1, Controllers: []string{}}},
		{LSN: 5, Kind: KindVerdict, Verdict: &orchestrator.VerdictCommit{}},
		{LSN: 6, Kind: KindIncident, Incident: &in},
		{Kind: s1},
	}
	st := &State{LSN: uint64(n), IncidentSeq: uint64(n) + 1, Incidents: []Incident{in, {}},
		Cluster: orchestrator.ClusterState{
			Nodes:     []orchestrator.NodeState{{Name: s1, Capacity: res, Cordoned: true}, {Name: s2}},
			Workloads: []orchestrator.Workload{wl, {}},
			Quotas:    map[string]orchestrator.Resources{s1: res, s2 + "z": {}},
			Verdicts:  []string{s1 + "\x00" + s2, s2},
			Cleared:   map[string][]string{s1: {s2, s1}, s2 + "\x00": nil, s1 + "z": {}},
			VMSeq:     n,
		}}
	return recs, st
}

// checkEncoding compares appendRecord with json.Encoder and appendState
// with json.Marshal, byte for byte and error for error.
func checkEncoding(t *testing.T, recs []*Record, st *State) {
	t.Helper()
	for _, r := range recs {
		var want bytes.Buffer
		werr := json.NewEncoder(&want).Encode(r)
		got, err := appendRecord([]byte("prefix"), r)
		if (err == nil) != (werr == nil) {
			t.Fatalf("record %+v: appendRecord error %v, json.Encoder error %v", r, err, werr)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("record %+v: failed append extended dst to %q", r, got)
			}
			continue
		}
		if !bytes.Equal(got[len("prefix"):], want.Bytes()) {
			t.Fatalf("record:\n got %s\nwant %s", got[len("prefix"):], want.Bytes())
		}
	}
	want, werr := json.Marshal(st)
	got, err := appendState(nil, st)
	if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("state:\n got %s (%v)\nwant %s (%v)", got, err, want, werr)
	}
}

// checkDecoding compares decodeRecord and decodeState with
// json.Unmarshal on data.
func checkDecoding(t *testing.T, data []byte) {
	t.Helper()
	checkDecode(t, data, decodeRecord)
	checkDecode(t, data, decodeState)
}

// checkDecode compares decode with json.Unmarshal on data: the error,
// the value, and the value's encoding (DeepEqual takes -0 for 0; the
// encoding does not).
func checkDecode[T any](t *testing.T, data []byte, decode func([]byte, *T) error) {
	t.Helper()
	got, want := new(T), new(T)
	err := decode(data, got)
	werr := json.Unmarshal(data, want)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%T on %q: codec error %v, json.Unmarshal error %v", got, data, err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T on %q:\n got %+v\nwant %+v", got, data, got, want)
	}
	g, gerr := json.Marshal(got)
	w, werr := json.Marshal(want)
	if gerr != nil || werr != nil || !bytes.Equal(g, w) {
		t.Fatalf("%T on %q: decoded values encode as %s (%v) and %s (%v)", got, data, g, gerr, w, werr)
	}
}

// FuzzWALCodec holds the WAL codec to encoding/json: the encoders
// byte for byte against json.Encoder (records) and json.Marshal
// (snapshots), the decoders value for value and error for error against
// json.Unmarshal, on the encoders' own output and on arbitrary bytes.
func FuzzWALCodec(f *testing.F) {
	f.Add("web", "acme", int64(500), 0.5, []byte(`{"lsn":1,"kind":"place"}`))
	f.Add("malware", "sha256:abc", int64(3), 1e-7, []byte(`{"lsn":5,"kind":"admission-verdict","key":"malware\u0000sha256:abc"}`))
	f.Add("<script>&", "a\u2028b\u2029", int64(-1), 1e21, []byte(`{"lsn":1,"kind":"x","name":"\u003c\u003e\u0026 \" \\ \/ \b\f\n\r\t"}`))
	f.Add("bad\xffutf8", "det\xc3", int64(math.MaxInt64), math.Copysign(0, -1), []byte("{\"lsn\":1,\"kind\":\"incident\",\"incident\":{\"source\":\"x\",\"detail\":\"\xff\",\"blocked\":true}}"))
	f.Add("nan", "", int64(0), math.NaN(), []byte(`{"lsn":1,"lsn":2,"kind":"x"}`))
	f.Add("", "", int64(math.MinInt64), math.Inf(1), []byte(`{"LSN":1,"Kind":"x"}`))
	f.Add("x", "y", int64(7), 2.5, []byte(`null`))
	f.Add("x", "y", int64(7), 2.5, []byte(`{"lsn":1,"kind":"quota","quota":null,"extra":[1,{"a":2}]}`))
	f.Add("x", "y", int64(7), 2.5, []byte(`{"lsn":18446744073709551616,"kind":"x"}`))
	f.Add("x", "y", int64(7), 2.5, []byte(`{"lsn":1,"kind":"node-join","capacity":{"cpuMilli":9223372036854775808,"memoryMB":1}}`))
	f.Add("x", "y", int64(7), 2.5, []byte(`{"lsn":1,"kind":"place","workload":{"spec":{"name":"\ud83d\ude00"},"score":1e400}}`))
	f.Add("x", "y", int64(7), 2.5, []byte(`{"lsn":3,"kind":"place","workload":{"spec":{"na`))
	f.Add("x", "y", int64(7), 2.5, []byte(`{"lsn":1,"cluster":{"quotas":{"a":{"cpuMilli":1},"a":{"memoryMB":2}},"verdicts":["k\u0000v",null]},"incidents":[]}`))
	f.Add("x", "y", int64(7), 2.5, []byte(`{"lsn":-0,"cluster":{"nodes":[{"name":"n","cordoned":false}],"vmSeq":1.0}}`))
	// Per-digest verdicts: a digest with escapes, an empty controller
	// list, a duplicated digest, legacy and new records side by side.
	f.Add("sha256:\"<&>\u2028", "sast", int64(1), 0.0, []byte(`{"lsn":9,"kind":"admission-verdict","verdict":{"digest":"sha256:\"\u003c\u0026\u003e\u2028","controllers":["malware","sast"]}}`))
	f.Add("x", "", int64(2), 0.0, []byte(`{"lsn":9,"kind":"admission-verdict","verdict":{"digest":"sha256:a","controllers":[]}}`))
	f.Add("x", "y", int64(3), 0.0, []byte(`{"lsn":1,"cluster":{"cleared":{"sha256:a":["sast"],"sha256:a":["sca"],"sha256:b":null,"sha256:c":[]}}}`))
	f.Add("x", "y", int64(4), 0.0, []byte(`{"lsn":1,"cluster":{"verdicts":["malware\u0000sha256:a"],"cleared":{"sha256:a":["sast","malware"]}}}`))
	f.Add("x", "y", int64(5), 0.0, []byte("{\"lsn\":5,\"kind\":\"admission-verdict\",\"key\":\"malware\\u0000sha256:a\"}\n{\"lsn\":6,\"kind\":\"admission-verdict\",\"verdict\":{\"digest\":\"sha256:a\",\"controllers\":[\"sast\"]}}\n"))

	f.Fuzz(func(t *testing.T, s1, s2 string, n int64, score float64, data []byte) {
		recs, st := codecSamples(s1, s2, n, score)
		checkEncoding(t, recs, st)
		for _, r := range recs {
			if line, err := appendRecord(nil, r); err == nil {
				checkDecoding(t, line)
			}
		}
		if snap, err := appendState(nil, st); err == nil {
			checkDecoding(t, snap)
		}
		checkDecoding(t, data)
	})
}

// TestWALCodecCoversEveryField: every exported field of Record and
// State, nested types included, set to a non-zero value, encodes as
// encoding/json encodes it and decodes back on the fast path. A field
// added to a persisted type (orchestrator.Workload, say) that the codec
// does not know fails here, not in a recovery.
func TestWALCodecCoversEveryField(t *testing.T) {
	var rec Record
	var st State
	fill(reflect.ValueOf(&rec).Elem())
	fill(reflect.ValueOf(&st).Elem())
	checkEncoding(t, []*Record{&rec}, &st)

	line, _ := appendRecord(nil, &rec)
	snap, _ := appendState(nil, &st)
	if !jsoncodec.Decode(line, new(Record), recordField) {
		t.Errorf("fast path refused its own record %s", line)
	}
	if !jsoncodec.Decode(snap, new(State), stateField) {
		t.Errorf("fast path refused its own snapshot %s", snap)
	}
	checkDecoding(t, line)
	checkDecoding(t, snap)
}

// fill sets every exported, encoded field reachable from v to a
// non-zero value; a map gets one member, a slice one element.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x<\x00")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint64:
		v.SetUint(7)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(key)
		fill(elem)
		v.SetMapIndex(key, elem)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
				fill(v.Field(i))
			}
		}
	default:
		panic("fill: no value for " + v.Type().String())
	}
}

// TestWALOpensDataDirWrittenByEncodingJSON: a data directory written
// the way encoding/json writes it — json.Encoder log lines, a
// json.Marshal snapshot, escaped verdict keys and a torn final line —
// recovers to the state the json.Unmarshal reference gives, and the
// torn bytes are cut at the same offset.
func TestWALOpensDataDirWrittenByEncodingJSON(t *testing.T) {
	dir := t.TempDir()
	snapshot := &State{LSN: 3, IncidentSeq: 1,
		Cluster: orchestrator.ClusterState{
			Nodes:     []orchestrator.NodeState{{Name: "olt-01", Capacity: orchestrator.Resources{CPUMilli: 4000, MemoryMB: 1024}}},
			Workloads: []orchestrator.Workload{*placeRecord("web", "olt-01", 500).Workload},
			Quotas:    map[string]orchestrator.Resources{"acme": {CPUMilli: 2000, MemoryMB: 512}},
			Verdicts:  []string{"malware\x00sha256:abc", "sast\x00sha256:<def>"},
			VMSeq:     1,
		},
		Incidents: []Incident{{Source: "falco", Detail: "probe \u2028 & <tag>", Blocked: true, Seq: 1}},
	}
	snap, err := json.Marshal(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte(`malware\u0000sha256`)) {
		t.Fatalf("snapshot does not escape the verdict key: %s", snap)
	}
	if err := os.WriteFile(filepath.Join(dir, snapFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	wl := placeRecord("db", "olt-01", 250)
	wl.Workload.Score = 0.125
	recs := []Record{
		{LSN: 2, Kind: KindStop, Name: "covered-by-the-snapshot"},
		{LSN: 4, Kind: KindVerdict, Key: "sca\x00sha256:abc"},
		{LSN: 5, Kind: wl.Kind, Workload: wl.Workload, VMSeq: 2},
		{LSN: 6, Kind: KindIncident, Incident: &Incident{Source: "admission", Workload: "db", Detail: "sast: <x> & \"y\"", Seq: 2}},
		{LSN: 7, Kind: KindNodeCordon, Node: "olt-01", Cordoned: true},
	}
	var log bytes.Buffer
	enc := json.NewEncoder(&log)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	durable := int64(log.Len())
	log.WriteString(`{"lsn":8,"kind":"workload-stop","na`)
	if err := os.WriteFile(filepath.Join(dir, walFile), log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// The reference: encoding/json reads the same bytes.
	ref := new(State)
	if err := json.Unmarshal(snap, ref); err != nil {
		t.Fatal(err)
	}
	var refRecs []Record
	for _, line := range bytes.SplitAfter(log.Bytes()[:durable], []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		refRecs = append(refRecs, r)
	}
	want := apply(ref, refRecs)

	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered\n %+v\nwant\n %+v", got, want)
	}
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != durable {
		t.Fatalf("wal truncated to %v (%v), want %d", fi.Size(), err, durable)
	}
	if w.LastLSN() != 7 {
		t.Fatalf("LastLSN = %d, want 7", w.LastLSN())
	}
}

// TestWALSnapshotKeepsNoDecodedBase: the store keeps the snapshot it
// decoded at open only until its first write, and Snapshot keeps none;
// a Load after that re-reads the file and stays exact.
func TestWALSnapshotKeepsNoDecodedBase(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, w)
	st, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	st.LSN = w.LastLSN()
	if err := w.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	if w.base != nil {
		t.Fatal("Snapshot kept the decoded state")
	}
	if err := w.Append(Record{Kind: KindStop, Name: "web"}); err != nil {
		t.Fatal(err)
	}
	want, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Cluster.Workloads) != 0 || len(want.Cluster.Nodes) != 2 || want.LSN != st.LSN+1 {
		t.Fatalf("Load after Snapshot = %+v", want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, err = OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 2; i++ {
		if w.base == nil {
			t.Fatalf("Load %d: no snapshot decoded at open", i)
		}
		got, err := w.Load()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Load %d after reopen = %+v (%v), want %+v", i, got, err, want)
		}
	}
	if err := w.Append(Record{Kind: KindNodeRemove, Node: "olt-02"}); err != nil {
		t.Fatal(err)
	}
	if w.base != nil {
		t.Fatal("Append left the decoded snapshot behind")
	}
	got, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cluster.Nodes) != 1 || got.LSN != want.LSN+1 {
		t.Fatalf("Load after Append = %+v", got)
	}
}
