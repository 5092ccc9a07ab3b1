package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"genio/internal/orchestrator"
)

func placeRecord(name, node string, cpu int) Record {
	return Record{Kind: KindPlace, Workload: &orchestrator.Workload{
		Spec: orchestrator.WorkloadSpec{Name: name, Tenant: "acme",
			Resources: orchestrator.Resources{CPUMilli: cpu, MemoryMB: 64}},
		Node: node, VMID: "vm-001",
	}}
}

func joinRecord(node string, cpu int) Record {
	return Record{Kind: KindNodeJoin, Node: node,
		Capacity: &orchestrator.Resources{CPUMilli: cpu, MemoryMB: 1024}}
}

// seedStore drives a representative mutation sequence through any Store.
func seedStore(t *testing.T, s Store) {
	t.Helper()
	recs := []Record{
		joinRecord("olt-01", 4000),
		joinRecord("olt-02", 4000),
		{Kind: KindQuota, Tenant: "acme", Quota: &orchestrator.Resources{CPUMilli: 2000, MemoryMB: 512}},
		placeRecord("web", "olt-01", 500),
		placeRecord("db", "olt-02", 500),
		{Kind: KindVerdict, Key: "malware\x00sha256:abc"},
		{Kind: KindStop, Name: "db"},
		{Kind: KindNodeCordon, Node: "olt-02", Cordoned: true},
		{Kind: KindIncident, Incident: &Incident{Source: "falco", Detail: "probe", Seq: 1}},
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatalf("append %s: %v", r.Kind, err)
		}
	}
}

// checkSeeded asserts the state recovered from seedStore's sequence.
func checkSeeded(t *testing.T, st *State) {
	t.Helper()
	if st == nil {
		t.Fatal("recovered state is nil")
	}
	if len(st.Cluster.Nodes) != 2 {
		t.Fatalf("nodes = %+v, want 2", st.Cluster.Nodes)
	}
	if !st.Cluster.Nodes[1].Cordoned || st.Cluster.Nodes[0].Cordoned {
		t.Fatalf("cordon state wrong: %+v", st.Cluster.Nodes)
	}
	if len(st.Cluster.Workloads) != 1 || st.Cluster.Workloads[0].Spec.Name != "web" {
		t.Fatalf("workloads = %+v, want only web (db stopped)", st.Cluster.Workloads)
	}
	if q := st.Cluster.Quotas["acme"]; q.CPUMilli != 2000 {
		t.Fatalf("quota = %+v", st.Cluster.Quotas)
	}
	if want := map[string][]string{"sha256:abc": {"malware"}}; !reflect.DeepEqual(st.Cluster.Cleared, want) || st.Cluster.Verdicts != nil {
		t.Fatalf("verdicts = %v, flat %v; want %v", st.Cluster.Cleared, st.Cluster.Verdicts, want)
	}
	if len(st.Incidents) != 1 || st.Incidents[0].Source != "falco" {
		t.Fatalf("incidents = %+v", st.Incidents)
	}
	if st.IncidentSeq != 1 {
		t.Fatalf("incident seq = %d", st.IncidentSeq)
	}
}

// TestVMSeqSurvivesStoppedWorkload: the VM id counter must recover from
// place records even when the workload that advanced it was stopped
// before the crash — otherwise a restarted cluster re-mints a spent id.
func TestVMSeqSurvivesStoppedWorkload(t *testing.T) {
	s, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := []Record{
		joinRecord("olt-01", 4000),
		{Kind: KindPlace, VMSeq: 1, Workload: &orchestrator.Workload{
			Spec: orchestrator.WorkloadSpec{Name: "wl-a", Tenant: "acme"}, Node: "olt-01", VMID: "vm-001"}},
		{Kind: KindPlace, VMSeq: 2, Workload: &orchestrator.Workload{
			Spec: orchestrator.WorkloadSpec{Name: "wl-b", Tenant: "acme"}, Node: "olt-01", VMID: "vm-002"}},
		{Kind: KindStop, Name: "wl-b"},
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster.VMSeq != 2 {
		t.Fatalf("recovered VMSeq = %d, want 2 (vm-002 was minted then stopped)", st.Cluster.VMSeq)
	}
	if len(st.Cluster.Workloads) != 1 || st.Cluster.Workloads[0].VMID != "vm-001" {
		t.Fatalf("workloads = %+v", st.Cluster.Workloads)
	}
}

func TestStoreReplay(t *testing.T) {
	s, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Load(); err != nil || st != nil {
		t.Fatalf("empty load = %v, %v; want nil, nil", st, err)
	}
	seedStore(t, s)
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, st)

	// Snapshot compacts; replaying the (empty) tail over it converges.
	if err := s.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	st2, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, st2)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Kind: KindStop, Name: "x"}); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

func TestWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, w)
	// Crash-style close: flush the group commit, never snapshot.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFile)); !os.IsNotExist(err) {
		t.Fatalf("close must not snapshot, stat err = %v", err)
	}

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, st)
	if got := w2.LastLSN(); got != 9 {
		t.Fatalf("recovered LSN = %d, want 9", got)
	}

	// New appends continue the LSN sequence past recovery.
	if err := w2.Append(placeRecord("api", "olt-01", 200)); err != nil {
		t.Fatal(err)
	}
	if got := w2.LastLSN(); got != 10 {
		t.Fatalf("post-recovery LSN = %d, want 10", got)
	}
}

func TestWALSnapshotRotation(t *testing.T) {
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
	// The rotated log holds nothing: the snapshot covers every record.
	if buf, err := os.ReadFile(filepath.Join(dir, walFile)); err != nil || len(buf) != 0 {
		t.Fatalf("rotated wal len=%d err=%v, want empty", len(buf), err)
	}

	// Appends after rotation land in the new log and survive reopen.
	if err := w.Append(placeRecord("api", "olt-01", 200)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st2, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Cluster.Workloads) != 2 {
		t.Fatalf("workloads after rotation+append = %+v", st2.Cluster.Workloads)
	}
	checkOverlapConverges(t, st, st2)
}

// checkOverlapConverges asserts the pre-rotation state is a subset view of
// the post-recovery one (same nodes and quotas).
func checkOverlapConverges(t *testing.T, before, after *State) {
	t.Helper()
	if !reflect.DeepEqual(before.Cluster.Nodes, after.Cluster.Nodes) {
		t.Fatalf("nodes diverged:\n%+v\n%+v", before.Cluster.Nodes, after.Cluster.Nodes)
	}
	if !reflect.DeepEqual(before.Cluster.Quotas, after.Cluster.Quotas) {
		t.Fatalf("quotas diverged:\n%+v\n%+v", before.Cluster.Quotas, after.Cluster.Quotas)
	}
}

// TestWALSnapshotOverlapIdempotent covers the deliberate overlap window: a
// snapshot whose LSN is older than the log tail leaves records present in
// BOTH the snapshot and the tail; replay must converge, not double-apply.
func TestWALSnapshotOverlapIdempotent(t *testing.T) {
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
	// Claim the snapshot covers only the first 3 records; records 4..9 stay
	// in the rotated log even though st already contains their effects.
	st.LSN = 3
	if err := w.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st2, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, st2)
}

// TestWALTornTail loses only the interrupted final line.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"lsn":10,"kind":"place","workl`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	checkSeeded(t, st)
	if got := w2.LastLSN(); got != 9 {
		t.Fatalf("LSN after torn tail = %d, want 9", got)
	}
}

// TestWALTornTailThenAppend is the recovery-after-recovery regression:
// OpenWAL must truncate a torn tail before appending, or the first
// post-recovery record concatenates onto the leftover bytes into one
// unparsable line — and the NEXT recovery stops there, silently
// dropping every acknowledged record written after the crash.
func TestWALTornTailThenAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, w) // LSNs 1..9
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"lsn":10,"kind":"place","workl`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// First recovery discards the torn record, then keeps writing.
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(placeRecord("post-crash", "olt-01", 100)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Second recovery must see the seed AND the post-crash record: the
	// torn bytes may not poison the line the new record landed on.
	w3, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	st, err := w3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := w3.LastLSN(); got != 10 {
		t.Fatalf("LSN after torn-tail append cycle = %d, want 10", got)
	}
	names := make(map[string]bool, len(st.Cluster.Workloads))
	for _, wl := range st.Cluster.Workloads {
		names[wl.Spec.Name] = true
	}
	if !names["web"] || !names["post-crash"] {
		t.Fatalf("workloads = %+v, want web and post-crash to survive", st.Cluster.Workloads)
	}
}

// TestWALLargeRecordRecovers: the write path imposes no line-length
// limit (a record embeds a full workload snapshot), so the recovery
// path may not either — a record past any fixed scanner buffer must
// still boot. The old reader capped lines at 8MB and refused to open.
func TestWALLargeRecordRecovers(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	big := placeRecord(strings.Repeat("x", 9<<20), "olt-01", 10)
	if err := w.Append(big); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("reopen over >8MB record: %v", err)
	}
	defer w2.Close()
	st, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cluster.Workloads) != 1 || len(st.Cluster.Workloads[0].Spec.Name) != 9<<20 {
		t.Fatalf("large record did not survive recovery: %d workloads", len(st.Cluster.Workloads))
	}
}

func TestWALCorruptSnapshotRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapFile), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir); err == nil {
		t.Fatal("open over corrupt snapshot must fail loudly")
	}
}

// TestWALGroupCommitBatches proves Append never blocks on I/O: a burst of
// appends lands durably with far fewer fsyncs than records (indirectly, by
// verifying all records survive a flush+reopen while Append stays
// non-blocking under the store mutex only).
func TestWALGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := w.Append(placeRecord(fmt.Sprintf("wl-%03d", i), "olt-01", 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := readLog(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

// TestWALConcurrentAppendSnapshot races appends against snapshots (run
// under -race): every record appended must survive into the final state,
// whether it travelled via a snapshot or the rotated log.
func TestWALConcurrentAppendSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 50
	var appenders sync.WaitGroup
	for g := 0; g < writers; g++ {
		appenders.Add(1)
		go func(g int) {
			defer appenders.Done()
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("wl-%d-%03d", g, i)
				if err := w.Append(placeRecord(name, "olt-01", 10)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, err := w.Load()
			if err != nil {
				t.Errorf("load: %v", err)
				return
			}
			if st == nil {
				continue
			}
			if err := w.Snapshot(st); err != nil && err != ErrClosed {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	appenders.Wait()
	close(stop)
	<-snapDone

	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Cluster.Workloads); got != writers*per {
		t.Fatalf("recovered %d workloads, want %d", got, writers*per)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// And the on-disk view agrees after reopen.
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st2, err := w2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st2.Cluster.Workloads); got != writers*per {
		t.Fatalf("reopened with %d workloads, want %d", got, writers*per)
	}
}

// TestRecordJSONStable pins the wire format of a representative record so
// accidental field renames show up as a test diff, not a recovery failure.
func TestRecordJSONStable(t *testing.T) {
	r := Record{LSN: 7, Kind: KindQuota, Tenant: "acme",
		Quota: &orchestrator.Resources{CPUMilli: 100, MemoryMB: 256}}
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"lsn":7,"kind":"quota","tenant":"acme","quota":{"cpuMilli":100,"memoryMB":256}}`
	if string(buf) != want {
		t.Fatalf("record json drifted:\n got %s\nwant %s", buf, want)
	}
}
