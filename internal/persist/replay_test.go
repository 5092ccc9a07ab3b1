package persist

import (
	"cmp"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"genio/internal/orchestrator"
)

// applyReference is the replay apply is held to: every row goes into a
// map by name and back into a slice, which is then sorted by value.
// It is kept as the oracle for FuzzReplayMatchesReference.
func applyReference(base *State, recs []Record) *State {
	nodes := make(map[string]orchestrator.NodeState, len(base.Cluster.Nodes))
	for _, ns := range base.Cluster.Nodes {
		nodes[ns.Name] = ns
	}
	wls := make(map[string]orchestrator.Workload, len(base.Cluster.Workloads))
	for _, w := range base.Cluster.Workloads {
		wls[w.Spec.Name] = w
	}
	quotas := make(map[string]orchestrator.Resources, len(base.Cluster.Quotas))
	for t, q := range base.Cluster.Quotas {
		quotas[t] = q
	}
	// verdicts maps a digest to its sorted, duplicate-free controllers.
	verdicts := make(map[string][]string, len(base.Cluster.Cleared))
	cleared := func(digest string, names ...string) {
		if digest == "" {
			return
		}
		if merged, added := orchestrator.MergeVerdicts(verdicts[digest], names); added != nil {
			verdicts[digest] = merged
		}
	}
	for digest, names := range base.Cluster.Cleared {
		cleared(digest, names...)
	}
	for _, k := range base.Cluster.Verdicts {
		if name, digest, ok := splitVerdictKey(k); ok {
			cleared(digest, name)
		}
	}
	incidents := append([]Incident(nil), base.Incidents...)
	seenSeq := make(map[uint64]struct{}, len(incidents))
	for _, i := range incidents {
		seenSeq[i.Seq] = struct{}{}
	}

	st := &State{LSN: base.LSN, IncidentSeq: base.IncidentSeq}
	st.Cluster.VMSeq = base.Cluster.VMSeq
	for _, r := range recs {
		if r.LSN <= base.LSN {
			continue
		}
		if r.LSN > st.LSN {
			st.LSN = r.LSN
		}
		switch r.Kind {
		case KindNodeJoin:
			ns := orchestrator.NodeState{Name: r.Node}
			if r.Capacity != nil {
				ns.Capacity = *r.Capacity
			}
			nodes[r.Node] = ns
		case KindNodeRemove:
			delete(nodes, r.Node)
		case KindNodeCordon:
			if ns, ok := nodes[r.Node]; ok {
				ns.Cordoned = r.Cordoned
				nodes[r.Node] = ns
			}
		case KindPlace:
			if r.Workload != nil {
				wls[r.Workload.Spec.Name] = *r.Workload
			}
			if r.VMSeq > st.Cluster.VMSeq {
				st.Cluster.VMSeq = r.VMSeq
			}
		case KindStop:
			delete(wls, r.Name)
		case KindQuota:
			if r.Quota != nil {
				quotas[r.Tenant] = *r.Quota
			}
		case KindVerdict:
			if r.Verdict != nil {
				cleared(r.Verdict.Digest, r.Verdict.Controllers...)
			}
			if name, digest, ok := splitVerdictKey(r.Key); ok {
				cleared(digest, name)
			}
		case KindIncident:
			if r.Incident == nil {
				break
			}
			if _, dup := seenSeq[r.Incident.Seq]; dup {
				break
			}
			seenSeq[r.Incident.Seq] = struct{}{}
			incidents = append(incidents, *r.Incident)
			if r.Incident.Seq > st.IncidentSeq {
				st.IncidentSeq = r.Incident.Seq
			}
		}
	}

	st.Cluster.Nodes = make([]orchestrator.NodeState, 0, len(nodes))
	for _, ns := range nodes {
		st.Cluster.Nodes = append(st.Cluster.Nodes, ns)
	}
	slices.SortFunc(st.Cluster.Nodes, func(a, b orchestrator.NodeState) int {
		return strings.Compare(a.Name, b.Name)
	})
	st.Cluster.Workloads = make([]orchestrator.Workload, 0, len(wls))
	for _, w := range wls {
		st.Cluster.Workloads = append(st.Cluster.Workloads, w)
	}
	slices.SortFunc(st.Cluster.Workloads, func(a, b orchestrator.Workload) int {
		return strings.Compare(a.Spec.Name, b.Spec.Name)
	})
	if len(quotas) > 0 {
		st.Cluster.Quotas = quotas
	}
	if len(verdicts) > 0 {
		st.Cluster.Cleared = verdicts
	}
	slices.SortFunc(incidents, func(a, b Incident) int { return cmp.Compare(a.Seq, b.Seq) })
	st.Incidents = incidents
	for _, i := range incidents {
		if i.Seq > st.IncidentSeq {
			st.IncidentSeq = i.Seq
		}
	}
	return st
}

// replayCase builds a base state and an LSN-ordered tail from script,
// one byte per choice (zeros once the script runs out), so the same
// script always yields the same case. Names come from small pools, so
// a tail stops and re-places names, places them out of name order
// ("w10" sorts before "w2") and repeats incident seqs; base may repeat
// names too, and the first records may sit at or below base's LSN.
func replayCase(script []byte) (*State, []Record) {
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	node := func() string { return "olt-" + strconv.Itoa(next()%5) }
	wl := func() string { return "w" + strconv.Itoa(next()%16) }
	workload := func() *orchestrator.Workload {
		return &orchestrator.Workload{
			Spec: orchestrator.WorkloadSpec{Name: wl(), Tenant: "t" + strconv.Itoa(next()%3),
				Resources: orchestrator.Resources{CPUMilli: next(), MemoryMB: 1}},
			Node: node(), VMID: "vm-" + strconv.Itoa(next()%8), Score: float64(next()),
		}
	}
	incident := func() *Incident {
		return &Incident{Source: "falco", Detail: strconv.Itoa(next()), Seq: uint64(next() % 6)}
	}
	digest := func() string { return []string{"", "sha256:a", "sha256:b"}[next()%3] }
	controller := func() string { return []string{"malware", "sast", "sca"}[next()%3] }
	legacyKey := func() string {
		return []string{controller() + "\x00" + digest(), "no-separator", "sast\x00"}[next()%3]
	}

	base := &State{LSN: uint64(next() % 8), IncidentSeq: uint64(next() % 4)}
	base.Cluster.VMSeq = int64(next() % 4)
	for n := next() % 6; n > 0; n-- {
		base.Cluster.Nodes = append(base.Cluster.Nodes, orchestrator.NodeState{Name: node(),
			Capacity: orchestrator.Resources{CPUMilli: next()}, Cordoned: next()%2 == 0})
	}
	for n := next() % 24; n > 0; n-- {
		base.Cluster.Workloads = append(base.Cluster.Workloads, *workload())
	}
	if next()%2 == 0 { // the order snapshots are written in
		slices.SortStableFunc(base.Cluster.Workloads, func(a, b orchestrator.Workload) int {
			return strings.Compare(a.Spec.Name, b.Spec.Name)
		})
	}
	for n := next() % 3; n > 0; n-- {
		if base.Cluster.Quotas == nil {
			base.Cluster.Quotas = map[string]orchestrator.Resources{}
		}
		base.Cluster.Quotas["t"+strconv.Itoa(next()%3)] = orchestrator.Resources{CPUMilli: next()}
	}
	for n := next() % 3; n > 0; n-- {
		if base.Cluster.Cleared == nil {
			base.Cluster.Cleared = map[string][]string{}
		}
		base.Cluster.Cleared[digest()] = []string{controller()}
	}
	for n := next() % 3; n > 0; n-- {
		base.Cluster.Verdicts = append(base.Cluster.Verdicts, legacyKey())
	}
	for n := next() % 4; n > 0; n-- {
		base.Incidents = append(base.Incidents, *incident())
	}

	var recs []Record
	for lsn := uint64(1); len(script) > 0; lsn++ {
		r := Record{LSN: lsn}
		switch next() % 10 {
		case 0:
			r.Kind, r.Node = KindNodeJoin, node()
			if next()%4 != 0 {
				r.Capacity = &orchestrator.Resources{CPUMilli: next()}
			}
		case 1:
			r.Kind, r.Node = KindNodeRemove, node()
		case 2:
			r.Kind, r.Node, r.Cordoned = KindNodeCordon, node(), next()%2 == 0
		case 3, 4:
			r.Kind, r.VMSeq = KindPlace, int64(next()%8)
			if next()%8 != 0 {
				r.Workload = workload()
			}
		case 5:
			r.Kind, r.Name = KindStop, wl()
		case 6:
			r.Kind, r.Tenant = KindQuota, "t"+strconv.Itoa(next()%3)
			if next()%4 != 0 {
				r.Quota = &orchestrator.Resources{CPUMilli: next()}
			}
		case 7:
			r.Kind = KindVerdict
			if next()%2 == 0 {
				r.Key = legacyKey()
			} else {
				r.Verdict = &orchestrator.VerdictCommit{Digest: digest(), Controllers: []string{controller(), controller()}}
			}
		case 8:
			r.Kind = KindIncident
			if next()%8 != 0 {
				r.Incident = incident()
			}
		default:
			r.Kind = "unknown"
		}
		recs = append(recs, r)
	}
	return base, recs
}

// scribble overwrites every row of st, as a caller owning it may.
func scribble(st *State) {
	for i := range st.Cluster.Nodes {
		st.Cluster.Nodes[i] = orchestrator.NodeState{Name: "scribbled"}
	}
	for i := range st.Cluster.Workloads {
		st.Cluster.Workloads[i] = orchestrator.Workload{Node: "scribbled"}
	}
	for i := range st.Incidents {
		st.Incidents[i] = Incident{Detail: "scribbled"}
	}
}

// FuzzReplayMatchesReference: apply, which replays the tail in place
// over one copy of base's rows, recovers exactly the state the
// map-and-sort reference does, and neither reads nor writes base through
// the state it returns.
func FuzzReplayMatchesReference(f *testing.F) {
	f.Add([]byte{})
	// Sorted base, then stop and re-place w3, w12 out of order, a
	// cordon, a join and a remove, and a duplicate incident seq.
	f.Add([]byte{2, 1, 0, 2, 1, 10, 1, 2, 3, 2, 0, 1, 3, 5, 0, 1, 0, 1, 0, 0,
		5, 3, 3, 1, 3, 0, 9, 1, 2, 4, 1, 12, 0, 9, 1, 2, 2, 1, 0, 0, 1, 4,
		0, 3, 8, 7, 1, 8, 1, 2, 8, 1, 3, 2, 7, 0, 1, 0, 8, 0})
	f.Add([]byte("an arbitrary script of bytes that drives both replays"))
	f.Fuzz(func(t *testing.T, script []byte) {
		base, recs := replayCase(script)
		want := applyReference(base, recs)
		got := apply(base, recs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("apply = %+v\nwant    %+v", got, want)
		}
		scribble(got)
		if pristine, _ := replayCase(script); !reflect.DeepEqual(base, pristine) {
			t.Fatalf("base changed under replay:\n%+v\nwant %+v", base, pristine)
		}
	})
}

// TestWALLoadTwiceReturnsEqualStates: Load replays onto the snapshot
// OpenWAL decoded without writing into it, so a second Load, after the
// caller has overwritten the first one's rows, recovers the same state.
func TestWALLoadTwiceReturnsEqualStates(t *testing.T) {
	dir := t.TempDir()
	snap := &State{LSN: 4, IncidentSeq: 1, Incidents: []Incident{{Source: "falco", Seq: 1}}}
	snap.Cluster.Nodes = []orchestrator.NodeState{{Name: "olt-01"}, {Name: "olt-02"}}
	for _, name := range []string{"w1", "w2", "w3"} {
		snap.Cluster.Workloads = append(snap.Cluster.Workloads, *placeRecord(name, "olt-01", 100).Workload)
	}
	tail := []Record{
		{LSN: 5, Kind: KindStop, Name: "w2"},
		{LSN: 6, Kind: KindNodeCordon, Node: "olt-01", Cordoned: true},
		placeRecord("w0", "olt-02", 200), // sorts before the snapshot's rows
		placeRecord("w2", "olt-02", 300),
		{LSN: 9, Kind: KindIncident, Incident: &Incident{Source: "pon", Seq: 2}},
	}
	tail[2].LSN, tail[3].LSN = 7, 8
	writeDataDir(t, dir, snap, tail)
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	first, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if want := applyReference(snap, tail); !reflect.DeepEqual(first, want) {
		t.Fatalf("Load = %+v, want %+v", first, want)
	}
	want := applyReference(snap, tail)
	scribble(first)
	second, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("second Load = %+v, want %+v", second, want)
	}
	decoded, _, err := readSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.base, decoded) {
		t.Fatalf("replay wrote into the decoded snapshot: %+v, want %+v", w.base, decoded)
	}
}
