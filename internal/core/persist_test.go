package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genio/internal/container"
	"genio/internal/orchestrator"
	"genio/internal/persist"
)

// walPlatform builds a secure platform persisting into dir.
func walPlatform(t *testing.T, dir string, opts ...Option) *Platform {
	t.Helper()
	store, err := persist.OpenWAL(dir)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	p, err := New(SecureConfig(), append([]Option{WithStore(store)}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

// seedDurable drives a representative control-plane history: joins, quota,
// deployments, a cordon, a node failure (reschedule), and an incident.
func seedDurable(t *testing.T, p *Platform) {
	t.Helper()
	addNode(t, p, "olt-01")
	addNode(t, p, "olt-02")
	addNode(t, p, "olt-03")
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "acme-ci", "acme")
	p.Cluster.SetQuota("acme", orchestrator.Resources{CPUMilli: 20000, MemoryMB: 40960})
	for i := 0; i < 4; i++ {
		spec := orchestrator.WorkloadSpec{
			Name: fmt.Sprintf("analytics-%d", i), Tenant: "acme",
			ImageRef: "acme/analytics:2.0.1", Isolation: orchestrator.IsolationSoft,
			Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
		}
		if _, err := p.DeployContext(context.Background(), "acme-ci", spec); err != nil {
			t.Fatalf("Deploy %s: %v", spec.Name, err)
		}
	}
	if err := p.Cluster.Cordon("olt-03"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Cluster.FailNode("olt-02"); err != nil {
		t.Fatal(err)
	}
	p.RecordIncident(Incident{Source: "test-probe", Workload: "analytics-0",
		Detail: "synthetic", Blocked: true})
	p.Flush()
}

// fingerprint renders everything recovery must reproduce byte-for-byte.
func fingerprint(t *testing.T, p *Platform) string {
	t.Helper()
	st := p.Cluster.ExportState()
	buf, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	inc, err := json.MarshalIndent(p.Incidents(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(buf) + "\n" + string(inc)
}

// TestCrashRecoveryExactState is the tentpole's core guarantee: kill -9
// after the group commit lands, reopen the directory, and the control
// plane is byte-identical — placements, quotas, cordons, verdict cache,
// and the incident ledger all survive on the log alone (no snapshot).
func TestCrashRecoveryExactState(t *testing.T) {
	dir := t.TempDir()
	p := walPlatform(t, dir)
	seedDurable(t, p)
	want := fingerprint(t, p)
	p.Crash()

	p2 := walPlatform(t, dir)
	defer p2.Close()
	if got := fingerprint(t, p2); got != want {
		t.Fatalf("state diverged across crash/recovery:\nbefore:\n%s\nafter:\n%s", want, got)
	}

	// Recovered placements are live state, not a display copy: the same
	// name is refused as a duplicate.
	pushSigned(t, p2, container.AnalyticsImage())
	allowDeploy(t, p2, "acme-ci", "acme")
	_, err := p2.DeployContext(context.Background(), "acme-ci", orchestrator.WorkloadSpec{
		Name: "analytics-0", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	})
	var dup *orchestrator.DuplicateNameError
	if !errors.As(err, &dup) {
		t.Fatalf("re-deploying recovered name = %v, want DuplicateNameError", err)
	}

	// New VMs never collide with recovered IDs.
	existing := map[string]bool{}
	for _, vm := range p2.Cluster.VMs() {
		existing[vm.ID] = true
	}
	w, err := p2.DeployContext(context.Background(), "acme-ci", orchestrator.WorkloadSpec{
		Name: "fresh", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationHard,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	})
	if err != nil {
		t.Fatalf("post-recovery deploy: %v", err)
	}
	if existing[w.VMID] {
		t.Fatalf("recovered platform reissued VM id %s", w.VMID)
	}

	// New incidents continue the recovered sequence, never reuse it.
	before := p2.Incidents()
	p2.RecordIncident(Incident{Source: "test-probe", Detail: "post-recovery"})
	p2.Flush()
	after := p2.Incidents()
	if len(after) != len(before)+1 {
		t.Fatalf("incidents %d -> %d", len(before), len(after))
	}
	last := after[len(after)-1]
	if last.Seq <= before[len(before)-1].Seq {
		t.Fatalf("incident seq went backwards: %d after %d", last.Seq, before[len(before)-1].Seq)
	}
}

// TestGracefulCloseCompacts proves Close snapshots: recovery replays no
// log tail and still reproduces the exact state.
func TestGracefulCloseCompacts(t *testing.T) {
	dir := t.TempDir()
	p := walPlatform(t, dir)
	seedDurable(t, p)
	want := fingerprint(t, p)
	p.Close()

	p2 := walPlatform(t, dir)
	defer p2.Close()
	if got := fingerprint(t, p2); got != want {
		t.Fatalf("state diverged across graceful restart:\nbefore:\n%s\nafter:\n%s", want, got)
	}
}

// TestRecoveredNodeReprovisionKeepsPlacements re-runs the provisioning
// pipeline over a recovered member (the daemon re-attests its fleet on
// boot) and checks the placements are not orphaned by a re-registration.
func TestRecoveredNodeReprovisionKeepsPlacements(t *testing.T) {
	dir := t.TempDir()
	p := walPlatform(t, dir)
	seedDurable(t, p)
	wantWls := len(p.Cluster.Workloads())
	p.Crash()

	p2 := walPlatform(t, dir)
	defer p2.Close()
	addNode(t, p2, "olt-01") // re-provision over the recovered member
	if got := len(p2.Cluster.Workloads()); got != wantWls {
		t.Fatalf("workloads after re-provision = %d, want %d", got, wantWls)
	}
	util := p2.Cluster.Utilization()
	for _, u := range util {
		if u.Node == "olt-01" && u.Workloads == 0 {
			t.Fatal("re-provisioning olt-01 dropped its placements")
		}
	}
}

// TestRecoveredVerdictCacheSkipsRescan: the admission verdict cache is
// part of the durable state, so a re-pushed identical image deploys
// without a fresh scan (Cached verdicts).
func TestRecoveredVerdictCacheSkipsRescan(t *testing.T) {
	dir := t.TempDir()
	p := walPlatform(t, dir)
	addNode(t, p, "olt-01")
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "acme-ci", "acme")
	if _, err := p.DeployContext(context.Background(), "acme-ci", orchestrator.WorkloadSpec{
		Name: "analytics", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	}); err != nil {
		t.Fatal(err)
	}
	cached := p.Cluster.AdmissionCacheSize()
	if cached == 0 {
		t.Fatal("no verdicts cached after a clean deploy")
	}
	keys := p.Cluster.VerdictKeys()
	p.Crash()

	// The cold admission committed every scanner's verdict in one record.
	log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	var verdictRecs []persist.Record
	for _, line := range bytes.Split(bytes.TrimSpace(log), []byte{'\n'}) {
		var r persist.Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if r.Kind == persist.KindVerdict {
			verdictRecs = append(verdictRecs, r)
		}
	}
	if len(verdictRecs) != 1 || verdictRecs[0].Verdict == nil || len(verdictRecs[0].Verdict.Controllers) != cached || verdictRecs[0].Key != "" {
		t.Fatalf("verdict records %+v, want one carrying all %d verdicts", verdictRecs, cached)
	}

	p2 := walPlatform(t, dir)
	defer p2.Close()
	if got := p2.Cluster.AdmissionCacheSize(); got != cached {
		t.Fatalf("recovered verdict cache = %d entries, want %d", got, cached)
	}
	if got := p2.Cluster.VerdictKeys(); !slices.Equal(got, keys) {
		t.Fatalf("recovered verdict keys %q, want %q", got, keys)
	}
}

// TestSnapshotWhileDeploying races the snapshot cadence against live
// deployments (run under -race): a snapshot taken mid-commit must never
// capture a half-applied placement, so recovery always lands on a state
// some serial history could have produced — and, after all deploys
// settle, on exactly the final state.
func TestSnapshotWhileDeploying(t *testing.T) {
	dir := t.TempDir()
	p := walPlatform(t, dir, WithSnapshotEvery(4))
	addNode(t, p, "olt-01")
	addNode(t, p, "olt-02")
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "acme-ci", "acme")

	const workers, per = 4, 15
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				spec := orchestrator.WorkloadSpec{
					Name: fmt.Sprintf("wl-%d-%02d", g, i), Tenant: "acme",
					ImageRef: "acme/analytics:2.0.1", Isolation: orchestrator.IsolationSoft,
					Resources: orchestrator.Resources{CPUMilli: 10, MemoryMB: 16},
				}
				if _, err := p.DeployContext(context.Background(), "acme-ci", spec); err != nil {
					t.Errorf("deploy %s: %v", spec.Name, err)
					return
				}
			}
		}(g)
	}
	snapStop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-snapStop:
				return
			default:
				if err := p.SnapshotNow(); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(snapStop)
	<-snapDone
	p.Flush()
	want := fingerprint(t, p)
	p.Crash()

	p2 := walPlatform(t, dir)
	defer p2.Close()
	if got := fingerprint(t, p2); got != want {
		t.Fatal("recovery after concurrent snapshots diverged from live state")
	}
	if got := len(p2.Cluster.Workloads()); got != workers*per {
		t.Fatalf("recovered %d workloads, want %d", got, workers*per)
	}
}

// TestSnapshotCadenceCompactsLog: enough traffic past WithSnapshotEvery
// must eventually bound the replay tail (the background snapshot ran).
func TestSnapshotCadenceCompactsLog(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(SecureConfig(), WithStore(store), WithSnapshotEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	addNode(t, p, "olt-01")
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "acme-ci", "acme")
	for i := 0; i < 40; i++ {
		spec := orchestrator.WorkloadSpec{
			Name: fmt.Sprintf("wl-%02d", i), Tenant: "acme",
			ImageRef: "acme/analytics:2.0.1", Isolation: orchestrator.IsolationSoft,
			Resources: orchestrator.Resources{CPUMilli: 10, MemoryMB: 16},
		}
		if _, err := p.DeployContext(context.Background(), "acme-ci", spec); err != nil {
			t.Fatal(err)
		}
	}
	// Wait out any in-flight background snapshot, then assert one ran.
	if err := p.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if store.LastLSN() == 0 {
		t.Fatal("no records were logged")
	}
	p.Crash()

	p2 := walPlatform(t, dir)
	defer p2.Close()
	if got := len(p2.Cluster.Workloads()); got != 40 {
		t.Fatalf("recovered %d workloads, want 40", got)
	}
}

// failingStore wraps a Store and can be flipped to fail every Append,
// modelling a full or dying disk under a live control plane.
type failingStore struct {
	persist.Store
	failing atomic.Bool
}

func (f *failingStore) Append(r persist.Record) error {
	if f.failing.Load() {
		return errFailDisk
	}
	return f.Store.Append(r)
}

var errFailDisk = errors.New("simulated disk failure")

// TestStoreFailureSurfacedNotSilent: once the store fails, the platform
// keeps serving (live state stays authoritative) but must SAY so — the
// sticky error is visible through StoreErr and a blocked incident is
// raised, instead of silently accepting non-durable deploys until a
// restart loses them.
func TestStoreFailureSurfacedNotSilent(t *testing.T) {
	wal, err := persist.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &failingStore{Store: wal}
	p, err := New(SecureConfig(), WithStore(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	addNode(t, p, "olt-01")
	if err := p.StoreErr(); err != nil {
		t.Fatalf("healthy store reported failure: %v", err)
	}

	fs.failing.Store(true)
	addNode(t, p, "olt-02") // the node-join mutation hits the dead store

	if err := p.StoreErr(); !errors.Is(err, errFailDisk) {
		t.Fatalf("StoreErr = %v, want the sticky disk failure", err)
	}
	// The operator-visible incident lands asynchronously (it is raised
	// off the cluster lock that observed the failure).
	deadline := time.Now().Add(5 * time.Second)
	for {
		found := false
		for _, i := range p.Incidents() {
			if i.Source == "persist" && i.Blocked {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no persist incident raised; incidents = %+v", p.Incidents())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The platform still serves and still tracks live state.
	if !p.Cluster.HasNode("olt-02") {
		t.Fatal("live state lost after store failure")
	}
}
