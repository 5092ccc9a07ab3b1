package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"genio/internal/container"
	"genio/internal/events"
	"genio/internal/orchestrator"
)

// fedPlatform is a secure two-member federation — "a" (west, the
// default member) and "b" (east) — with the signed analytics image
// deployable by "ops" in tenant acme and no binding quota. Members start
// without nodes; each test provisions the capacity it needs.
func fedPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := New(SecureConfig(), WithFederation(
		FederationMember{Name: "a", Region: "west"},
		FederationMember{Name: "b", Region: "east"}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(p.Close)
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "ops", "acme")
	for _, c := range p.allClusters() {
		c.SetQuota("acme", orchestrator.Resources{})
	}
	return p
}

func addNodeIn(t *testing.T, p *Platform, cluster, name string) {
	t.Helper()
	if _, err := p.AddEdgeNodeIn(cluster, name, orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384}); err != nil {
		t.Fatalf("AddEdgeNodeIn(%s, %s): %v", cluster, name, err)
	}
}

func fedSpec(name, region string) orchestrator.WorkloadSpec {
	return orchestrator.WorkloadSpec{
		Name: name, Tenant: "acme", ImageRef: "acme/analytics:2.0.1", Region: region,
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 200, MemoryMB: 256},
	}
}

// workloadNodes maps a cluster's workloads to the nodes they run on.
func workloadNodes(c *orchestrator.Cluster) map[string]string {
	out := make(map[string]string)
	for _, w := range c.Workloads() {
		out[w.Spec.Name] = w.Node
	}
	return out
}

// TestNodeVerbsReachEveryFederationMember: cordon, uncordon, drain and
// fail address a node wherever it schedules, not only on the default
// member — cordon blocks placement on that member, drain migrates within
// it, fail reschedules within it and drops the platform's EdgeNode.
func TestNodeVerbsReachEveryFederationMember(t *testing.T) {
	p := fedPlatform(t)
	addNodeIn(t, p, "a", "a-0")
	addNodeIn(t, p, "b", "b-0")
	addNodeIn(t, p, "b", "b-1")
	b, err := p.ClusterByName("b")
	if err != nil {
		t.Fatal(err)
	}

	if err := p.Cordon("b-0"); err != nil {
		t.Fatalf("cordon a non-default member's node: %v", err)
	}
	for _, name := range []string{"w-0", "w-1", "w-2"} {
		if _, err := p.DeployContext(context.Background(), "ops", fedSpec(name, "east")); err != nil {
			t.Fatalf("deploy %s: %v", name, err)
		}
	}
	for wl, node := range workloadNodes(b) {
		if node != "b-1" {
			t.Fatalf("%s placed on %s while b-0 was cordoned", wl, node)
		}
	}
	if err := p.Uncordon("b-0"); err != nil {
		t.Fatalf("uncordon: %v", err)
	}

	res, err := p.Drain(context.Background(), "b-1")
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(res.Migrated) != 3 {
		t.Fatalf("drain migrated %v, want all 3 workloads", res.Migrated)
	}
	for wl, node := range workloadNodes(b) {
		if node != "b-0" {
			t.Fatalf("%s drained to %s, want b-0 (its own member)", wl, node)
		}
	}

	if err := p.Uncordon("b-1"); err != nil {
		t.Fatal(err)
	}
	fr, err := p.FailNode("b-0")
	if err != nil {
		t.Fatalf("fail: %v", err)
	}
	if len(fr.Rescheduled) != 3 {
		t.Fatalf("failover rescheduled %v, want all 3 workloads", fr.Rescheduled)
	}
	for wl, node := range workloadNodes(b) {
		if node != "b-1" {
			t.Fatalf("%s rescheduled to %s, want b-1", wl, node)
		}
	}
	var nf *orchestrator.NodeNotFoundError
	if _, err := p.Node("b-0"); !errors.As(err, &nf) {
		t.Fatalf("failed node's EdgeNode still registered: %v", err)
	}
	if n := p.Cluster.WorkloadCount(); n != 0 {
		t.Fatalf("default member picked up %d workloads", n)
	}
	// A node nobody schedules keeps its typed refusal.
	if err := p.Cordon("ghost"); !errors.As(err, &nf) {
		t.Fatalf("cordon unknown node: want NodeNotFoundError, got %v", err)
	}
}

// TestEvacuationRejectionRecordsAdmissionIncidents: a re-placement the
// survivor's admission chain rejects is a rejected deploy like any other
// — one admission incident per failing scanner naming the lost workload,
// and one deploy.rejected count.
func TestEvacuationRejectionRecordsAdmissionIncidents(t *testing.T) {
	p := fedPlatform(t)
	// Only "b" has capacity, so the deploy lands there whatever the ring says.
	addNodeIn(t, p, "b", "b-0")
	if _, err := p.DeployContext(context.Background(), "ops", fedSpec("victim", "")); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if b, _ := p.ClusterByName("b"); b.WorkloadCount() != 1 {
		t.Fatal("fixture: victim did not land on b")
	}

	addNodeIn(t, p, "a", "a-0")
	for _, name := range []string{"deny-1", "deny-2"} {
		p.Cluster.RegisterAdmissionCtx(name, func(context.Context, orchestrator.WorkloadSpec, *container.Image) error {
			return errors.New("survivor policy refuses")
		})
	}
	var rejected atomic.Int64
	if _, err := p.Subscribe("rejected-count", []events.Topic{events.TopicMetric}, func(b []events.Event) {
		for _, ev := range b {
			if m, ok := ev.Payload.(events.Metric); ok && m.Name == "deploy.rejected" {
				rejected.Add(1)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	res, err := p.EvacuateCluster("ops", "b")
	if err != nil {
		t.Fatalf("evacuate: %v", err)
	}
	if len(res.Moved) != 0 || len(res.Lost) != 1 || res.Lost[0].Workload != "victim" {
		t.Fatalf("evacuation = %+v, want victim lost", res)
	}
	var adm *orchestrator.AdmissionError
	if !errors.As(res.Lost[0].Err, &adm) {
		t.Fatalf("lost workload carries %T %v, want the AdmissionError", res.Lost[0].Err, res.Lost[0].Err)
	}

	var details []string
	for _, inc := range p.Incidents() {
		if inc.Source == "admission" {
			if inc.Workload != "victim" {
				t.Fatalf("admission incident names %q, want victim", inc.Workload)
			}
			details = append(details, inc.Detail)
		}
	}
	sort.Strings(details)
	if len(details) != 2 || !strings.HasPrefix(details[0], "deny-1: ") || !strings.HasPrefix(details[1], "deny-2: ") {
		t.Fatalf("admission incidents = %q, want one per failing scanner", details)
	}
	// Incidents flushed the spine, so the metric has been delivered too.
	if n := rejected.Load(); n != 1 {
		t.Fatalf("deploy.rejected counted %d times, want 1", n)
	}
}

// TestOverflowLifecycleRunsForward: a deploy whose ring owner is out of
// capacity runs its scanning and placing stages again on the next
// member, but its lifecycle still moves forward only — pending,
// scanning, placing, running, each once.
func TestOverflowLifecycleRunsForward(t *testing.T) {
	p := fedPlatform(t)
	// "a" has a node too small for any spec; "b" fits them all.
	if _, err := p.AddEdgeNodeIn("a", "a-0", orchestrator.Resources{CPUMilli: 100, MemoryMB: 128}); err != nil {
		t.Fatal(err)
	}
	addNodeIn(t, p, "b", "b-0")
	want := []DeployState{StatePending, StateScanning, StatePlacing, StateRunning}
	for i := 0; i < 8; i++ {
		var states []DeployState
		d, err := p.DeployAsync(context.Background(), "ops", fedSpec(fmt.Sprintf("w-%d", i), ""),
			WithOnTransition(func(ev LifecycleEvent) { states = append(states, ev.State) }))
		if err != nil {
			t.Fatal(err)
		}
		if w, err := d.Result(); err != nil || w.Node != "b-0" {
			t.Fatalf("w-%d: placed %+v, err %v", i, w, err)
		}
		if !slices.Equal(states, want) {
			t.Fatalf("w-%d transitions = %v, want %v", i, states, want)
		}
	}
	a, _ := p.ClusterByName("a")
	if _, rejected := a.Counters(); rejected == 0 {
		t.Fatal("fixture: no deploy overflowed from a full ring owner")
	}
}
