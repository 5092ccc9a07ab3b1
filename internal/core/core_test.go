package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"genio/internal/container"
	"genio/internal/orchestrator"
	"genio/internal/pon"
	"genio/internal/rbac"
	"genio/internal/trace"
)

func securePlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := New(SecureConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func legacyPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := New(LegacyConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func addNode(t *testing.T, p *Platform, name string) *EdgeNode {
	t.Helper()
	n, err := p.AddEdgeNode(name, orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384})
	if err != nil {
		t.Fatalf("AddEdgeNode(%s): %v", name, err)
	}
	return n
}

// pushSigned publishes an image signed by a trusted publisher.
func pushSigned(t *testing.T, p *Platform, img *container.Image) {
	t.Helper()
	pub, err := container.NewPublisher("acme")
	if err != nil {
		t.Fatal(err)
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	sig := pub.Sign(img)
	p.Registry.Push(img, &sig)
}

func allowDeploy(t *testing.T, p *Platform, subject, tenant string) {
	t.Helper()
	p.RBAC.SetRole(rbac.Role{Name: tenant + "-deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: tenant},
	}})
	if err := p.RBAC.Bind(subject, tenant+"-deployer"); err != nil {
		t.Fatal(err)
	}
}

func TestSecureNodeProvisioning(t *testing.T) {
	p := securePlatform(t)
	n := addNode(t, p, "olt-01")
	if !n.Attested {
		t.Fatal("node not attested")
	}
	if n.Volume.Locked() {
		t.Fatal("volume locked after provisioning")
	}
	if n.ManualUnlock {
		t.Fatal("sealed unlock fell back to manual with TPM libs available")
	}
	if n.FIM == nil {
		t.Fatal("FIM not initialized")
	}
	// Hardened host passes the baseline.
	if svc, _ := n.Host.Service("telnetd"); svc.Enabled {
		t.Fatal("host not hardened")
	}
}

func TestLegacyNodeProvisioning(t *testing.T) {
	p := legacyPlatform(t)
	n := addNode(t, p, "olt-01")
	if n.Attested {
		t.Fatal("legacy node should not attest")
	}
	if n.FIM != nil {
		t.Fatal("legacy node should have no FIM")
	}
	if svc, _ := n.Host.Service("telnetd"); !svc.Enabled {
		t.Fatal("legacy host unexpectedly hardened")
	}
}

func TestONUOnboarding(t *testing.T) {
	p := securePlatform(t)
	addNode(t, p, "olt-01")
	onu, err := p.AttachONU("olt-01", "onu-0001")
	if err != nil {
		t.Fatalf("AttachONU: %v", err)
	}
	if onu.Port() == 0 {
		t.Fatal("ONU has no port")
	}
	if _, err := p.AttachONU("ghost-olt", "onu-0002"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("err = %v, want ErrNoNode", err)
	}
}

func TestSecureDeployPipeline(t *testing.T) {
	p := securePlatform(t)
	addNode(t, p, "olt-01")
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "acme-ci", "acme")
	w, err := p.DeployContext(context.Background(), "acme-ci", orchestrator.WorkloadSpec{
		Name: "analytics", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if w.Node != "olt-01" {
		t.Fatalf("scheduled on %s", w.Node)
	}
}

func TestMaliciousImageBlockedAtAdmission(t *testing.T) {
	p := securePlatform(t)
	addNode(t, p, "olt-01")
	pushSigned(t, p, container.CryptominerImage())
	allowDeploy(t, p, "shady-ci", "shady")
	_, err := p.DeployContext(context.Background(), "shady-ci", orchestrator.WorkloadSpec{
		Name: "optimizer", Tenant: "shady", ImageRef: "freestuff/optimizer:latest",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	})
	if !errors.Is(err, orchestrator.ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	counts := p.IncidentCounts()
	if counts["admission"] == 0 {
		t.Fatal("no admission incident recorded")
	}
}

func TestLegacyPlatformAdmitsMaliciousImage(t *testing.T) {
	p := legacyPlatform(t)
	addNode(t, p, "olt-01")
	p.Registry.Push(container.CryptominerImage(), nil) // unsigned is fine here
	if _, err := p.DeployContext(context.Background(), "anyone", orchestrator.WorkloadSpec{
		Name: "optimizer", Tenant: "shady", ImageRef: "freestuff/optimizer:latest",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	}); err != nil {
		t.Fatalf("legacy deploy rejected: %v", err)
	}
}

func TestRuntimePipelineBlocksAndDetects(t *testing.T) {
	p := securePlatform(t)
	addNode(t, p, "olt-01")
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "acme-ci", "acme")
	if _, err := p.DeployContext(context.Background(), "acme-ci", orchestrator.WorkloadSpec{
		Name: "web", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	}); err != nil {
		t.Fatal(err)
	}
	events := trace.ReverseShellTrace("web", "acme")
	executed := p.ObserveRuntime(events)
	if executed >= len(events) {
		t.Fatal("sandbox did not truncate the attack")
	}
	counts := p.IncidentCounts()
	if counts["sandbox"] == 0 {
		t.Fatal("no sandbox incident")
	}
}

// TestSandboxEnforcesNeverPlacedWorkload pins the fail-closed rule: the
// sandbox baseline confines a workload's runtime events even when no
// deploy ever placed it.
func TestSandboxEnforcesNeverPlacedWorkload(t *testing.T) {
	p := securePlatform(t)
	events := trace.ContainerEscapeTrace("never-placed", "shady")
	if executed := p.ObserveRuntime(events); executed >= len(events) {
		t.Fatal("sandbox let a never-placed workload's escape run")
	}
	var blocked []Incident
	for _, i := range p.Incidents() {
		if i.Source == "sandbox" {
			blocked = append(blocked, i)
		}
	}
	if len(blocked) != 1 || !blocked[0].Blocked || blocked[0].Workload != "never-placed" ||
		blocked[0].Detail != "blocked capability CAP_SYS_ADMIN" {
		t.Fatalf("sandbox incidents = %+v, want one blocked CAP_SYS_ADMIN", blocked)
	}
}

func TestLegacyRuntimeMissesAttack(t *testing.T) {
	p := legacyPlatform(t)
	events := trace.ReverseShellTrace("web", "acme")
	executed := p.ObserveRuntime(events)
	if executed != len(events) {
		t.Fatal("legacy platform truncated the attack")
	}
	if len(p.Incidents()) != 0 {
		t.Fatalf("legacy platform recorded incidents: %+v", p.Incidents())
	}
}

func TestDetectionOnlyConfig(t *testing.T) {
	cfg := LegacyConfig()
	cfg.RuntimeMonitoring = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := trace.ReverseShellTrace("web", "acme")
	executed := p.ObserveRuntime(events)
	if executed != len(events) {
		t.Fatal("detection-only config blocked execution")
	}
	counts := p.IncidentCounts()
	if counts["falco"] == 0 {
		t.Fatal("falco recorded nothing")
	}
}

func TestTenantQuotaDefaultApplied(t *testing.T) {
	p := securePlatform(t)
	addNode(t, p, "olt-01")
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "greedy-ci", "greedy")
	spec := orchestrator.WorkloadSpec{
		Tenant: "greedy", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 900, MemoryMB: 900},
	}
	var lastErr error
	deployed := 0
	for i := 0; i < 5; i++ {
		spec.Name = "w" + string(rune('a'+i))
		if _, err := p.DeployContext(context.Background(), "greedy-ci", spec); err != nil {
			lastErr = err
			break
		}
		deployed++
	}
	if deployed >= 5 {
		t.Fatal("quota never triggered")
	}
	if !errors.Is(lastErr, orchestrator.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", lastErr)
	}
}

func TestRogueONURejectedOnSecurePlatform(t *testing.T) {
	p := securePlatform(t)
	n := addNode(t, p, "olt-01")
	// A rogue device bypasses AttachONU and tries the OLT directly.
	rogue := pon.NewONU("onu-rogue", nil)
	if err := n.OLT.Activate(rogue); err == nil {
		t.Fatal("rogue ONU activated on authenticated PON")
	}
}

func TestFigure1Rendering(t *testing.T) {
	p := securePlatform(t)
	addNode(t, p, "olt-01")
	addNode(t, p, "olt-02")
	if _, err := p.AttachONU("olt-01", "onu-0001"); err != nil {
		t.Fatal(err)
	}
	out := p.RenderDeployment()
	for _, needle := range []string{"CLOUD", "EDGE", "FAR-EDGE", "olt-01", "olt-02", "onu-0001", "orchestrator"} {
		if !strings.Contains(out, needle) {
			t.Errorf("figure 1 missing %q", needle)
		}
	}
	layers := p.Deployment()
	if len(layers) != 3 {
		t.Fatalf("layers = %d, want 3", len(layers))
	}
}

func TestFigure2Rendering(t *testing.T) {
	p := securePlatform(t)
	out := p.RenderArchitecture()
	for _, needle := range []string{"INFRASTRUCTURE", "MIDDLEWARE", "APPLICATION", "MACsec", "Falco", "Kubernetes"} {
		if !strings.Contains(out, needle) {
			t.Errorf("figure 2 missing %q", needle)
		}
	}
	// On the secure platform every security component is on.
	for _, c := range p.Architecture() {
		if !c.Enabled {
			t.Errorf("secure platform has %q disabled", c.Component)
		}
	}
	// On the legacy platform the mitigations are off.
	lp := legacyPlatform(t)
	enabled := 0
	for _, c := range lp.Architecture() {
		if c.Enabled {
			enabled++
		}
	}
	if enabled >= len(lp.Architecture()) {
		t.Fatal("legacy platform shows everything enabled")
	}
}

// TestFacadeEndToEnd drives the platform exactly as the quickstart
// example does: secure platform, edge node, ONU, signed deploy.
func TestFacadeEndToEnd(t *testing.T) {
	p, err := New(SecureConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	if _, err := p.AddEdgeNode("olt-01", orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384}); err != nil {
		t.Fatalf("AddEdgeNode: %v", err)
	}
	if _, err := p.AttachONU("olt-01", "onu-0001"); err != nil {
		t.Fatalf("AttachONU: %v", err)
	}

	pub, err := container.NewPublisher("acme")
	if err != nil {
		t.Fatal(err)
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	img := container.AnalyticsImage()
	sig := pub.Sign(img)
	p.Registry.Push(img, &sig)

	p.RBAC.SetRole(rbac.Role{Name: "acme-deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
	}})
	if err := p.RBAC.Bind("acme-ci", "acme-deployer"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DeployContext(context.Background(), "acme-ci", orchestrator.WorkloadSpec{
		Name: "analytics", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	}); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
}
