package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"genio/internal/container"
	"genio/internal/events"
	"genio/internal/orchestrator"
)

// drainPlatform is a secure platform with two edge nodes and the signed
// analytics image deployable by "ops" in tenant acme.
func drainPlatform(t *testing.T) *Platform {
	t.Helper()
	p := securePlatform(t)
	t.Cleanup(p.Close)
	addNode(t, p, "olt-01")
	addNode(t, p, "olt-02")
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "ops", "acme")
	p.Cluster.SetQuota("acme", orchestrator.Resources{})
	return p
}

func deployN(t *testing.T, p *Platform, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := p.DeployContext(context.Background(), "ops", orchestrator.WorkloadSpec{
			Name: fmt.Sprintf("wl-%d", i), Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
			Isolation: orchestrator.IsolationSoft,
			Resources: orchestrator.Resources{CPUMilli: 200, MemoryMB: 256},
		}); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
}

// TestDrainPublishesNodeDrainEvents: every drain step lands on the
// node.drain spine topic, keyed by node, with the migration targets and
// scores visible to subscribers.
func TestDrainPublishesNodeDrainEvents(t *testing.T) {
	p := drainPlatform(t)
	deployN(t, p, 3)

	var mu sync.Mutex
	var phases []string
	var migrations int
	if _, err := p.Subscribe("drain-witness", []events.Topic{events.TopicNodeDrain},
		func(batch []events.Event) {
			mu.Lock()
			defer mu.Unlock()
			for _, ev := range batch {
				de, ok := ev.Payload.(orchestrator.DrainEvent)
				if !ok {
					t.Errorf("payload = %T", ev.Payload)
					continue
				}
				if ev.Key != de.Node {
					t.Errorf("event keyed %q, want node %q", ev.Key, de.Node)
				}
				phases = append(phases, de.Phase)
				if de.Phase == orchestrator.DrainMigrated {
					migrations++
					if de.Target == "" || de.Score <= 0 {
						t.Errorf("migration event missing target/score: %+v", de)
					}
				}
			}
		}); err != nil {
		t.Fatal(err)
	}

	res, err := p.Drain(context.Background(), "olt-01")
	if err != nil {
		t.Fatal(err)
	}
	p.Flush()
	mu.Lock()
	defer mu.Unlock()
	if migrations != len(res.Migrated) {
		t.Fatalf("spine saw %d migrations, drain reports %d", migrations, len(res.Migrated))
	}
	if len(phases) == 0 || phases[0] != orchestrator.DrainCordoned ||
		phases[len(phases)-1] != orchestrator.DrainCompleted {
		t.Fatalf("phases = %v", phases)
	}
	// The drained node is empty and cordoned; the fleet still runs all 3.
	if got := len(p.Cluster.Workloads()); got != 3 {
		t.Fatalf("workloads after drain = %d", got)
	}
}

// TestDrainCancelledEventOnSpine: a ctx-cancelled drain publishes the
// cancelled phase and the node returns to the schedulable pool.
func TestDrainCancelledEventOnSpine(t *testing.T) {
	p := drainPlatform(t)
	deployN(t, p, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Drain(ctx, "olt-01")
	if !errors.Is(err, orchestrator.ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	p.Flush()
	var sawCancelled bool
	for _, u := range p.Cluster.Utilization() {
		if u.Node == "olt-01" && u.Cordoned {
			t.Fatal("cancelled drain left cordon")
		}
	}
	if _, err := p.Subscribe("late", []events.Topic{events.TopicNodeDrain}, func([]events.Event) {}); err != nil {
		t.Fatal(err)
	}
	// The cancelled event was published before the late subscriber; use
	// the metric counter to confirm the stopped outcome was recorded.
	for topic, ts := range p.Metrics() {
		if topic == events.TopicNodeDrain && ts.Published > 0 {
			sawCancelled = true
		}
	}
	if !sawCancelled {
		t.Fatal("no node.drain events published for cancelled drain")
	}
}

func TestNodeLifecycleOnClosedPlatform(t *testing.T) {
	p := drainPlatform(t)
	p.Close()
	var closed *ClosedError
	if err := p.Cordon("olt-01"); !errors.As(err, &closed) {
		t.Fatalf("Cordon after Close: %v", err)
	}
	if err := p.Uncordon("olt-01"); !errors.As(err, &closed) {
		t.Fatalf("Uncordon after Close: %v", err)
	}
	if _, err := p.Drain(context.Background(), "olt-01"); !errors.As(err, &closed) {
		t.Fatalf("Drain after Close: %v", err)
	}
}

// TestCordonedNodeSkippedByDeploy: the platform surface honours cordon
// end to end — deploys route around a cordoned OLT.
func TestCordonedNodeSkippedByDeploy(t *testing.T) {
	p := drainPlatform(t)
	if err := p.Cordon("olt-01"); err != nil {
		t.Fatal(err)
	}
	deployN(t, p, 2)
	for _, w := range p.Cluster.Workloads() {
		if w.Node == "olt-01" {
			t.Fatalf("workload %s on cordoned node", w.Spec.Name)
		}
	}
}
