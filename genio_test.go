package genio_test

import (
	"context"
	"sync"
	"testing"

	"genio"
	"genio/internal/container"
	"genio/internal/rbac"
)

// TestFacadeEndToEnd exercises the public API exactly as the quickstart
// example does: secure platform, edge node, ONU, signed deploy, campaign.
func TestFacadeEndToEnd(t *testing.T) {
	p, err := genio.NewPlatform(genio.SecureConfig())
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	if _, err := p.AddEdgeNode("olt-01", genio.Resources{CPUMilli: 8000, MemoryMB: 16384}); err != nil {
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
	if _, err := p.DeployContext(context.Background(), "acme-ci", genio.WorkloadSpec{
		Name: "analytics", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: genio.IsolationSoft,
		Resources: genio.Resources{CPUMilli: 500, MemoryMB: 512},
	}); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
}

// TestFacadeEventSpine drives the Subscribe/Metrics surface the way an
// external SIEM exporter would: subscribe to two topics, generate
// traffic, flush, and check both the delivered stream and the ledger.
func TestFacadeEventSpine(t *testing.T) {
	p, err := genio.NewPlatform(genio.SecureConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.AddEdgeNode("olt-01", genio.Resources{CPUMilli: 8000, MemoryMB: 16384}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	byTopic := map[genio.Topic]int{}
	sub, err := p.Subscribe("siem", []genio.Topic{genio.TopicIncident, genio.TopicAudit},
		func(batch []genio.Event) {
			mu.Lock()
			for _, e := range batch {
				byTopic[e.Topic]++
			}
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

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
	if _, err := p.DeployContext(context.Background(), "acme-ci", genio.WorkloadSpec{
		Name: "analytics", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: genio.IsolationSoft,
		Resources: genio.Resources{CPUMilli: 500, MemoryMB: 512},
	}); err != nil {
		t.Fatal(err)
	}
	p.RecordIncident(genio.Incident{Source: "external-ids", Detail: "facade test"})
	p.Flush()

	mu.Lock()
	defer mu.Unlock()
	if byTopic[genio.TopicIncident] == 0 {
		t.Fatal("subscriber saw no incident events")
	}
	if byTopic[genio.TopicAudit] == 0 {
		t.Fatal("subscriber saw no audit events (deploy should emit verdict + placement)")
	}
	stats := p.Metrics()
	for _, topic := range []genio.Topic{genio.TopicIncident, genio.TopicAudit, genio.TopicMetric} {
		ts := stats[topic]
		if ts.Published == 0 || ts.Published != ts.Delivered {
			t.Fatalf("topic %s ledger = %+v, want published==delivered>0", topic, ts)
		}
	}
}

func TestFacadeThreatModel(t *testing.T) {
	m := genio.ThreatModel()
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(m.Threats) != 8 || len(m.Mitigations) != 18 {
		t.Fatalf("model shape = %d/%d", len(m.Threats), len(m.Mitigations))
	}
}

func TestFacadeCampaign(t *testing.T) {
	p, err := genio.NewPlatform(genio.SecureConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := genio.NewCampaign(p)
	if err != nil {
		t.Fatal(err)
	}
	results := c.Run()
	summary := genio.SummarizeAttacks(results)
	if summary[genio.AttackMissed] != 0 {
		t.Fatalf("secure platform missed attacks: %+v", results)
	}
}
