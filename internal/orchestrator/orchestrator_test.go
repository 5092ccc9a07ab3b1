package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"genio/internal/container"
	"genio/internal/rbac"
)

func testCluster(t *testing.T, settings Settings) (*Cluster, *container.Registry) {
	t.Helper()
	reg := container.NewRegistry()
	for _, img := range []*container.Image{
		container.IoTGatewayImage(), container.AnalyticsImage(),
		container.MLInferenceImage(), container.CryptominerImage(),
	} {
		reg.Push(img, nil)
	}
	c := NewCluster("genio-edge", reg, settings)
	c.AddNode("olt-01", Resources{CPUMilli: 4000, MemoryMB: 8192})
	c.AddNode("olt-02", Resources{CPUMilli: 4000, MemoryMB: 8192})
	return c, reg
}

func spec(name, tenant, ref string, iso IsolationMode) WorkloadSpec {
	return WorkloadSpec{
		Name: name, Tenant: tenant, ImageRef: ref, Isolation: iso,
		Resources: Resources{CPUMilli: 500, MemoryMB: 512},
	}
}

func TestDeployAndStop(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	w, err := c.DeployContext(context.Background(), "ops", spec("gw", "acme", "acme/iot-gateway:1.4.2", IsolationSoft))
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if w.Node == "" || w.VMID == "" {
		t.Fatalf("workload = %+v", w)
	}
	if _, ok := c.Workload("gw"); !ok {
		t.Fatal("workload not registered")
	}
	if err := c.Stop("gw"); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if _, ok := c.Workload("gw"); ok {
		t.Fatal("workload still present after Stop")
	}
	if err := c.Stop("gw"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if use := c.TenantUsage("acme"); use.CPUMilli != 0 || use.MemoryMB != 0 {
		t.Fatalf("usage after stop = %+v", use)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	if _, err := c.DeployContext(context.Background(), "ops", spec("gw", "acme", "acme/iot-gateway:1.4.2", IsolationSoft)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeployContext(context.Background(), "ops", spec("gw", "acme", "acme/analytics:2.0.1", IsolationSoft)); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("err = %v, want ErrDuplicateName", err)
	}
}

func TestHardIsolationDedicatedVM(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	w1, err := c.DeployContext(context.Background(), "ops", spec("a", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c.DeployContext(context.Background(), "ops", spec("b", "acme", "acme/iot-gateway:1.4.2", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if w1.VMID == w2.VMID {
		t.Fatal("hard isolation shared a VM")
	}
	for _, vm := range c.VMs() {
		if !vm.Dedicated {
			t.Fatalf("vm %s not dedicated", vm.ID)
		}
		if len(vm.Workloads) != 1 {
			t.Fatalf("vm %s hosts %d workloads", vm.ID, len(vm.Workloads))
		}
	}
}

func TestSoftIsolationSharesTenantVM(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	w1, err := c.DeployContext(context.Background(), "ops", spec("a", "acme", "acme/analytics:2.0.1", IsolationSoft))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c.DeployContext(context.Background(), "ops", spec("b", "acme", "acme/iot-gateway:1.4.2", IsolationSoft))
	if err != nil {
		t.Fatal(err)
	}
	if w1.Node == w2.Node && w1.VMID != w2.VMID {
		t.Fatal("same-tenant soft workloads on one node should share a VM")
	}
	// A different tenant never shares the VM.
	w3, err := c.DeployContext(context.Background(), "ops", spec("c", "rival", "acme/analytics:2.0.1", IsolationSoft))
	if err != nil {
		t.Fatal(err)
	}
	if w3.Node == w1.Node && w3.VMID == w1.VMID {
		t.Fatal("cross-tenant workloads shared a VM")
	}
	for vm, tenants := range c.SharedVMTenants() {
		if len(tenants) > 1 {
			t.Fatalf("vm %s hosts multiple tenants: %v", vm, tenants)
		}
	}
}

func TestSchedulingCapacity(t *testing.T) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("tiny", reg, Settings{})
	c.AddNode("n1", Resources{CPUMilli: 1000, MemoryMB: 1024})
	big := WorkloadSpec{Name: "big", Tenant: "t", ImageRef: "acme/analytics:2.0.1",
		Isolation: IsolationSoft, Resources: Resources{CPUMilli: 800, MemoryMB: 512}}
	if _, err := c.DeployContext(context.Background(), "ops", big); err != nil {
		t.Fatal(err)
	}
	second := big
	second.Name = "big2"
	if _, err := c.DeployContext(context.Background(), "ops", second); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestTenantQuotaBlocksResourceAbuse(t *testing.T) {
	// T8: a malicious tenant tries to monopolize resources; quotas stop it.
	c, _ := testCluster(t, Settings{})
	c.SetQuota("greedy", Resources{CPUMilli: 1000, MemoryMB: 1024})
	if _, err := c.DeployContext(context.Background(), "ops", spec("g1", "greedy", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeployContext(context.Background(), "ops", spec("g2", "greedy", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatal(err)
	}
	// Third deployment exceeds the 1000m quota (3 x 500m).
	if _, err := c.DeployContext(context.Background(), "ops", spec("g3", "greedy", "acme/analytics:2.0.1", IsolationSoft)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	// Another tenant is unaffected.
	if _, err := c.DeployContext(context.Background(), "ops", spec("ok", "polite", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatalf("co-tenant blocked: %v", err)
	}
}

// TestNegativeDemandRejected (T8): a negative demand would pass the quota
// and capacity checks and credit both with resources that do not exist,
// so it is refused before the pipeline — typed, counted, and leaving the
// tenant's usage and every node's Used untouched. Zero stays legal.
func TestNegativeDemandRejected(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	c.SetQuota("greedy", Resources{CPUMilli: 1000, MemoryMB: 1000})
	scans := 0
	c.RegisterAdmissionCtx("scan-counter", func(context.Context, WorkloadSpec, *container.Image) error {
		scans++
		return nil
	})
	for _, demand := range []Resources{
		{CPUMilli: -100000, MemoryMB: -100000},
		{CPUMilli: -1, MemoryMB: 128},
		{CPUMilli: 100, MemoryMB: -1},
	} {
		s := spec("neg", "greedy", "acme/analytics:2.0.1", IsolationSoft)
		s.Resources = demand
		_, err := c.DeployContext(context.Background(), "ops", s)
		var derr *InvalidDemandError
		if !errors.As(err, &derr) || !errors.Is(err, ErrRejected) || derr.Requested != demand {
			t.Fatalf("demand %+v: err = %v, want *InvalidDemandError under ErrRejected", demand, err)
		}
	}
	if scans != 0 {
		t.Fatalf("admission chain ran %d times for a statically invalid spec", scans)
	}
	if _, rejected := c.Counters(); rejected != 3 {
		t.Fatalf("rejected counter = %d, want 3", rejected)
	}
	if used := c.TenantUsage("greedy"); used != (Resources{}) {
		t.Fatalf("tenant usage after the rejections = %+v, want zero", used)
	}
	for _, u := range c.Utilization() {
		if u.Used != (Resources{}) {
			t.Fatalf("node %s Used = %+v after the rejections, want zero", u.Node, u.Used)
		}
	}
	// The quota the attack tried to inflate still binds.
	big := spec("big", "greedy", "acme/analytics:2.0.1", IsolationSoft)
	big.Resources = Resources{CPUMilli: 1500, MemoryMB: 512}
	if _, err := c.DeployContext(context.Background(), "ops", big); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	zero := spec("zero", "greedy", "acme/analytics:2.0.1", IsolationSoft)
	zero.Resources = Resources{}
	if _, err := c.DeployContext(context.Background(), "ops", zero); err != nil {
		t.Fatalf("zero demand rejected: %v", err)
	}
}

func TestAdmissionChainRejects(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	c.RegisterAdmissionCtx("no-sys-admin", func(_ context.Context, s WorkloadSpec, img *container.Image) error {
		if img.Config.HasCapability("CAP_SYS_ADMIN") {
			return fmt.Errorf("image requests CAP_SYS_ADMIN")
		}
		return nil
	})
	if _, err := c.DeployContext(context.Background(), "ops", spec("miner", "shady", "freestuff/optimizer:latest", IsolationSoft)); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	if _, err := c.DeployContext(context.Background(), "ops", spec("ok", "acme", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatalf("benign workload rejected: %v", err)
	}
	admitted, rejected := c.Counters()
	if admitted != 1 || rejected != 1 {
		t.Fatalf("counters = %d/%d", admitted, rejected)
	}
}

func TestAdmissionOrder(t *testing.T) {
	// The chain is run-all: every controller runs for every deployment,
	// and the first-registered failure is the one the verdict names.
	c, _ := testCluster(t, Settings{})
	var mu sync.Mutex
	ran := map[string]int{}
	mark := func(name string) {
		mu.Lock()
		ran[name]++
		mu.Unlock()
	}
	c.RegisterAdmissionCtx("first", func(context.Context, WorkloadSpec, *container.Image) error {
		mark("first")
		return nil
	})
	c.RegisterAdmissionCtx("second", func(context.Context, WorkloadSpec, *container.Image) error {
		mark("second")
		return errors.New("stop here")
	})
	c.RegisterAdmissionCtx("third", func(context.Context, WorkloadSpec, *container.Image) error {
		mark("third")
		return errors.New("also failing, but registered later")
	})
	_, err := c.DeployContext(context.Background(), "ops", spec("x", "t", "acme/analytics:2.0.1", IsolationSoft))
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "by second") || !strings.Contains(err.Error(), "stop here") {
		t.Fatalf("verdict should come from the first-registered failure, got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran["first"] != 1 || ran["second"] != 1 || ran["third"] != 1 {
		t.Fatalf("every controller should run exactly once, got %v", ran)
	}
}

func TestRBACGateOnDeploy(t *testing.T) {
	c, _ := testCluster(t, Settings{RBACEnabled: true})
	e := rbac.NewEngine()
	e.SetRole(rbac.Role{Name: "acme-deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
	}})
	if err := e.Bind("acme-ci", "acme-deployer"); err != nil {
		t.Fatal(err)
	}
	c.RBAC = e
	if _, err := c.DeployContext(context.Background(), "acme-ci", spec("ok", "acme", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatalf("authorized deploy failed: %v", err)
	}
	// Cross-tenant deploy denied (lateral movement, T5).
	if _, err := c.DeployContext(context.Background(), "acme-ci", spec("bad", "rival", "acme/analytics:2.0.1", IsolationSoft)); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("err = %v, want ErrUnauthorized", err)
	}
	// Unknown subject denied.
	if _, err := c.DeployContext(context.Background(), "stranger", spec("bad2", "acme", "acme/analytics:2.0.1", IsolationSoft)); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("err = %v, want ErrUnauthorized", err)
	}
}

func TestSignatureVerificationGate(t *testing.T) {
	c, reg := testCluster(t, Settings{})
	c.VerifyImageSignatures = true
	// Unsigned image in registry.
	if _, err := c.DeployContext(context.Background(), "ops", spec("x", "t", "acme/analytics:2.0.1", IsolationSoft)); err == nil {
		t.Fatal("unsigned image admitted with verification on")
	}
	// Sign and trust.
	pub, err := container.NewPublisher("acme")
	if err != nil {
		t.Fatal(err)
	}
	reg.TrustPublisher("acme", pub.PublicKey())
	img := container.AnalyticsImage()
	sig := pub.Sign(img)
	reg.Push(img, &sig)
	if _, err := c.DeployContext(context.Background(), "ops", spec("x", "t", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatalf("signed image rejected: %v", err)
	}
}

func TestUnknownImage(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	if _, err := c.DeployContext(context.Background(), "ops", spec("x", "t", "ghost:1", IsolationSoft)); err == nil {
		t.Fatal("deploy of unknown image succeeded")
	}
}

func TestSettingsFixtures(t *testing.T) {
	ins := InsecureDefaults()
	if !ins.AnonymousAuth || !ins.AllowPrivileged || ins.RBACEnabled {
		t.Fatalf("InsecureDefaults = %+v", ins)
	}
	hard := HardenedSettings()
	if hard.AnonymousAuth || !hard.RBACEnabled || !hard.EtcdEncryption || !hard.TLSOnAPIServer {
		t.Fatalf("HardenedSettings = %+v", hard)
	}
}

func TestIsolationModeString(t *testing.T) {
	if IsolationSoft.String() != "soft" || IsolationHard.String() != "hard" ||
		IsolationMode(9).String() != "isolation(9)" {
		t.Fatal("IsolationMode.String mismatch")
	}
}

// TestCandidatesStaySorted drives a seeded interleaving of every
// membership change — AddNode (insert), same-name re-add, FailNode,
// ImportState — and after each step holds candidates to exactly what a
// full rebuild from c.nodes yields: strictly name-sorted, no duplicate,
// the very node objects the map holds.
func TestCandidatesStaySorted(t *testing.T) {
	c := NewCluster("genio-edge", container.NewRegistry(), Settings{})
	rng := rand.New(rand.NewSource(7))
	capacity := Resources{CPUMilli: 4000, MemoryMB: 8192}
	for step := 0; step < 2000; step++ {
		name := fmt.Sprintf("olt-%03d", rng.Intn(96))
		switch r := rng.Intn(20); {
		case r == 0:
			c.ImportState(c.ExportState())
		case r < 6:
			_, _ = c.FailNode(name) // unknown names are a no-op here
		default:
			c.AddNode(name, capacity) // a re-add about one time in three
		}
		got := slices.Clone(c.candidates)
		c.rebuildCandidatesLocked()
		if !slices.Equal(got, c.candidates) {
			t.Fatalf("step %d (%s): candidates differ from a rebuild", step, name)
		}
		for i, n := range got {
			if c.nodes[n.name] != n || (i > 0 && got[i-1].name >= n.name) {
				t.Fatalf("step %d: candidates[%d] = %s stale, duplicated or out of order", step, i, n.name)
			}
		}
	}
}
