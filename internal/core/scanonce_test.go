package core

// Scan once per platform: federation members admit through one chain, so
// a cacheable controller runs once per image digest whichever member the
// ring routes a deploy to — sequential or concurrent deploys, evacuation
// re-placements and restarts alike — while rejections still re-scan and
// re-report on every attempt.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genio/internal/container"
	"genio/internal/federation"
	"genio/internal/orchestrator"
	"genio/internal/persist"
)

var scanOnceMembers = []FederationMember{
	{Name: "edge-a", Region: "west"},
	{Name: "edge-b", Region: "west"},
	{Name: "edge-c", Region: "east"},
}

// scanOnceTenants are the tenants the tests deploy as.
var scanOnceTenants = []string{"t-0", "t-1", "t-2", "t-3", "t-4", "t-5", "t-6", "t-7"}

// scanOncePlatform builds a secure three-member federation with two
// nodes per member, the analytics and cryptominer images pushed by one
// trusted publisher, and "ops" allowed to deploy in every scanOnceTenant.
// It registers "scan-counter" on the default member: a cacheable
// controller that counts its runs and rejects the cryptominer.
func scanOncePlatform(t *testing.T, opts ...Option) (*Platform, *atomic.Int64) {
	t.Helper()
	p, err := New(SecureConfig(), append([]Option{WithFederation(scanOnceMembers...)}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pub, err := container.NewPublisher("acme")
	if err != nil {
		t.Fatal(err)
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	for _, img := range []*container.Image{container.AnalyticsImage(), container.CryptominerImage()} {
		sig := pub.Sign(img)
		p.Registry.Push(img, &sig)
	}
	for _, tenant := range scanOnceTenants {
		allowDeploy(t, p, "ops", tenant)
	}
	for _, m := range scanOnceMembers {
		for i := 0; i < 2; i++ {
			addNodeIn(t, p, m.Name, fmt.Sprintf("%s-%d", m.Name, i))
		}
	}
	scans := new(atomic.Int64)
	miner := container.CryptominerImage().Digest()
	p.Cluster.RegisterAdmissionCachedCtx("scan-counter", func(_ context.Context, _ orchestrator.WorkloadSpec, img *container.Image) error {
		scans.Add(1)
		time.Sleep(time.Millisecond) // widen the window concurrent deploys share
		if img.Digest() == miner {
			return errors.New("counted and rejected")
		}
		return nil
	})
	return p, scans
}

func scanOnceSpec(name, tenant, ref string) orchestrator.WorkloadSpec {
	return orchestrator.WorkloadSpec{
		Name: name, Tenant: tenant, ImageRef: ref, Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 100, MemoryMB: 128},
	}
}

// ringOwners maps each scanOnceTenant to the member the ring routes its
// deploys of img to while no member is past its load bound.
func ringOwners(img *container.Image) map[string]string {
	ring := federation.NewRing(federation.DefaultReplicas)
	for _, m := range scanOnceMembers {
		ring.Add(m.Name)
	}
	out := make(map[string]string)
	for _, tenant := range scanOnceTenants {
		out[tenant], _ = ring.Owner(tenant, img.Digest())
	}
	return out
}

// verdictLog counts the MutVerdict records the default member's
// mutation sink receives.
func verdictLog(p *Platform) *atomic.Int64 {
	n := new(atomic.Int64)
	p.Cluster.SetMutationSink(func(m orchestrator.Mutation) {
		if m.Kind == orchestrator.MutVerdict {
			n.Add(1)
		}
	})
	return n
}

// membersHolding reports how many members run at least one workload.
func membersHolding(t *testing.T, p *Platform) int {
	t.Helper()
	n := 0
	for _, m := range scanOnceMembers {
		c, err := p.ClusterByName(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		if c.WorkloadCount() > 0 {
			n++
		}
	}
	return n
}

// checkScannedOnce asserts one run of the counting controller and one
// logged verdict per cacheable controller (the four scanners plus the
// counter), held in the cache every member reads.
func checkScannedOnce(t *testing.T, p *Platform, scans, logged *atomic.Int64) {
	t.Helper()
	if got := scans.Load(); got != 1 {
		t.Fatalf("scan-counter ran %d times for one digest, want 1", got)
	}
	if got := logged.Load(); got != 5 {
		t.Fatalf("%d verdicts logged, want 5 (four scanners and the counter, once each)", got)
	}
	for _, m := range p.Clusters() {
		c, _ := p.ClusterByName(m.Name)
		if got := c.AdmissionCacheSize(); got != 5 {
			t.Fatalf("member %s sees %d cached verdicts, want the shared 5", m.Name, got)
		}
	}
}

func TestScanOnceAcrossMembers(t *testing.T) {
	p, scans := scanOncePlatform(t)
	defer p.Close()
	logged := verdictLog(p)
	for i, tenant := range scanOnceTenants {
		spec := scanOnceSpec(fmt.Sprintf("w-%d", i), tenant, "acme/analytics:2.0.1")
		if _, err := p.DeployContext(context.Background(), "ops", spec); err != nil {
			t.Fatalf("deploy %s: %v", spec.Name, err)
		}
	}
	if n := membersHolding(t, p); n != len(scanOnceMembers) {
		t.Fatalf("fixture: workloads on %d members, want all %d", n, len(scanOnceMembers))
	}
	checkScannedOnce(t, p, scans, logged)
}

func TestScanOnceConcurrentAcrossMembers(t *testing.T) {
	p, scans := scanOncePlatform(t)
	defer p.Close()
	logged := verdictLog(p)
	const per = 3
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, tenant := range scanOnceTenants {
		for j := 0; j < per; j++ {
			wg.Add(1)
			go func(name, tenant string) {
				defer wg.Done()
				<-start
				if _, err := p.DeployContext(context.Background(), "ops", scanOnceSpec(name, tenant, "acme/analytics:2.0.1")); err != nil {
					t.Errorf("deploy %s: %v", name, err)
				}
			}(fmt.Sprintf("w-%d-%d", i, j), tenant)
		}
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := membersHolding(t, p); n < 2 {
		t.Fatalf("fixture: workloads on %d member(s), want them spread", n)
	}
	checkScannedOnce(t, p, scans, logged)
}

func TestScanOnceEvacuationRescansNothing(t *testing.T) {
	p, scans := scanOncePlatform(t)
	defer p.Close()
	logged := verdictLog(p)
	for i, tenant := range scanOnceTenants {
		spec := scanOnceSpec(fmt.Sprintf("w-%d", i), tenant, "acme/analytics:2.0.1")
		if _, err := p.DeployContext(context.Background(), "ops", spec); err != nil {
			t.Fatalf("deploy %s: %v", spec.Name, err)
		}
	}
	b, _ := p.ClusterByName("edge-b")
	held := b.WorkloadCount()
	if held == 0 {
		t.Fatal("fixture: nothing to evacuate from edge-b")
	}
	res, err := p.EvacuateCluster("ops", "edge-b")
	if err != nil {
		t.Fatalf("evacuate: %v", err)
	}
	if len(res.Moved) != held || len(res.Lost) != 0 {
		t.Fatalf("evacuation moved %d, lost %v; want all %d moved", len(res.Moved), res.Lost, held)
	}
	checkScannedOnce(t, p, scans, logged)
}

func TestScanOnceRejectionsRescanEveryAttempt(t *testing.T) {
	p, scans := scanOncePlatform(t)
	defer p.Close()
	owners := ringOwners(container.CryptominerImage())
	onMember := make(map[string]string) // member -> a tenant it owns
	for _, tenant := range scanOnceTenants {
		if _, ok := onMember[owners[tenant]]; !ok {
			onMember[owners[tenant]] = tenant
		}
	}
	if len(onMember) != len(scanOnceMembers) {
		t.Fatalf("fixture: tenants reach %d members, want all %d", len(onMember), len(scanOnceMembers))
	}
	const attempts = 2
	want := 0
	for _, m := range scanOnceMembers {
		c, _ := p.ClusterByName(m.Name)
		_, rejectedBefore := c.Counters()
		for i := 0; i < attempts; i++ {
			name := fmt.Sprintf("miner-%s-%d", m.Name, i)
			_, err := p.DeployContext(context.Background(), "ops",
				scanOnceSpec(name, onMember[m.Name], "freestuff/optimizer:latest"))
			var adm *orchestrator.AdmissionError
			if !errors.As(err, &adm) {
				t.Fatalf("%s: err = %v, want *AdmissionError", name, err)
			}
			k := len(adm.Rejections())
			if k < 2 {
				t.Fatalf("%s: %d failing verdicts, want the malware gate and the counter at least", name, k)
			}
			if got := admissionIncidentsByWorkload(p)[name]; got != k {
				t.Fatalf("%s named by %d admission incidents, want one per failing verdict (%d)", name, got, k)
			}
			want += k
		}
		if _, rejected := c.Counters(); rejected-rejectedBefore != attempts {
			t.Fatalf("member %s rejected %d attempts, want %d", m.Name, rejected-rejectedBefore, attempts)
		}
	}
	if got := scans.Load(); got != attempts*int64(len(scanOnceMembers)) {
		t.Fatalf("scan-counter ran %d times, want once per attempt (%d)", got, attempts*len(scanOnceMembers))
	}
	if got := p.IncidentCounts()["admission"]; got != want {
		t.Fatalf("%d admission incidents, want %d", got, want)
	}
}

func TestFederatedVerdictsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Platform, *atomic.Int64) {
		store, err := persist.OpenWAL(dir)
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		return scanOncePlatform(t, WithStore(store))
	}
	p, scans := open()
	// A tenant the ring routes to a non-default member, so the verdicts
	// are first committed during a deploy on that member.
	tenant := ""
	for _, tn := range scanOnceTenants {
		if owner := ringOwners(container.AnalyticsImage())[tn]; owner != p.Cluster.Name {
			tenant = tn
			break
		}
	}
	if tenant == "" {
		t.Fatal("fixture: every tenant routes to the default member")
	}
	w, err := p.DeployContext(context.Background(), "ops", scanOnceSpec("first", tenant, "acme/analytics:2.0.1"))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if p.Cluster.WorkloadCount() != 0 {
		t.Fatalf("fixture: first deploy landed on the default member (node %s)", w.Node)
	}
	if scans.Load() != 1 {
		t.Fatalf("scan-counter ran %d times, want 1", scans.Load())
	}
	p.Crash()

	p2, scans2 := open()
	defer p2.Close()
	for _, m := range scanOnceMembers {
		c, err := p2.ClusterByName(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		spec := scanOnceSpec("again-"+m.Name, tenant, "acme/analytics:2.0.1")
		if _, err := c.DeployContext(context.Background(), "ops", spec); err != nil {
			t.Fatalf("redeploy on %s: %v", m.Name, err)
		}
	}
	if got := scans2.Load(); got != 0 {
		t.Fatalf("scan-counter ran %d times after recovery, want 0: the verdict was not logged", got)
	}
}
