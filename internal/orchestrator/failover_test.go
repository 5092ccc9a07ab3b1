package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"genio/internal/container"
)

func TestFailoverReschedules(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	w, err := c.DeployContext(context.Background(), "ops", spec("web", "acme", "acme/analytics:2.0.1", IsolationSoft))
	if err != nil {
		t.Fatal(err)
	}
	origin := w.Node
	res, err := c.FailNode(origin)
	if err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if len(res.Rescheduled) != 1 || res.Rescheduled[0] != "web" {
		t.Fatalf("rescheduled = %v", res.Rescheduled)
	}
	moved, ok := c.Workload("web")
	if !ok {
		t.Fatal("workload lost")
	}
	if moved.Node == origin {
		t.Fatalf("workload still on failed node %s", origin)
	}
	// Tenant accounting survives the move.
	if use := c.TenantUsage("acme"); use.CPUMilli != 500 {
		t.Fatalf("usage after failover = %+v", use)
	}
}

func TestFailoverEvictsWhenNoCapacity(t *testing.T) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("small", reg, Settings{})
	c.AddNode("n1", Resources{CPUMilli: 1000, MemoryMB: 1024})
	c.AddNode("n2", Resources{CPUMilli: 1000, MemoryMB: 1024})
	// Fill both nodes.
	for i, node := range []string{"a", "b"} {
		s := WorkloadSpec{Name: node, Tenant: "t", ImageRef: "acme/analytics:2.0.1",
			Isolation: IsolationSoft, Resources: Resources{CPUMilli: 900, MemoryMB: 900}}
		if _, err := c.DeployContext(context.Background(), "ops", s); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	victim, _ := c.Workload("a")
	res, err := c.FailNode(victim.Node)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evicted) == 0 {
		t.Fatalf("expected eviction, got %+v", res)
	}
	// Evicted workload's quota is released.
	if use := c.TenantUsage("t"); use.CPUMilli != 900 {
		t.Fatalf("usage after eviction = %+v", use)
	}
}

func TestFailoverPreservesTenantVMSeparation(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	for _, s := range []WorkloadSpec{
		spec("a1", "acme", "acme/analytics:2.0.1", IsolationSoft),
		spec("r1", "rival", "acme/analytics:2.0.1", IsolationSoft),
		spec("a2", "acme", "acme/iot-gateway:1.4.2", IsolationHard),
	} {
		if _, err := c.DeployContext(context.Background(), "ops", s); err != nil {
			t.Fatal(err)
		}
	}
	w, _ := c.Workload("a1")
	if _, err := c.FailNode(w.Node); err != nil {
		t.Fatal(err)
	}
	for vm, tenants := range c.SharedVMTenants() {
		if len(tenants) > 1 {
			t.Fatalf("vm %s mixes tenants %v after failover", vm, tenants)
		}
	}
	// Hard isolation is still dedicated.
	if a2, ok := c.Workload("a2"); ok {
		for _, vm := range c.VMs() {
			if vm.ID == a2.VMID && !vm.Dedicated {
				t.Fatal("hard workload landed in shared VM after failover")
			}
		}
	}
}

// TestFailoverZeroHealthyNodes fails the last node standing: everything
// is evicted, quota fully released, and the cluster keeps answering
// (deploys report no capacity rather than wedging).
func TestFailoverZeroHealthyNodes(t *testing.T) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("lonely", reg, Settings{})
	c.AddNode("n1", Resources{CPUMilli: 2000, MemoryMB: 2048})
	for _, name := range []string{"a", "b"} {
		if _, err := c.DeployContext(context.Background(), "ops", spec(name, "t", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
			t.Fatalf("deploy %s: %v", name, err)
		}
	}
	res, err := c.FailNode("n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rescheduled) != 0 || len(res.Evicted) != 2 {
		t.Fatalf("with no survivors: rescheduled=%v evicted=%v", res.Rescheduled, res.Evicted)
	}
	if got := c.Nodes(); len(got) != 0 {
		t.Fatalf("nodes = %v", got)
	}
	if len(c.Workloads()) != 0 {
		t.Fatalf("workloads survive with zero nodes: %v", c.Workloads())
	}
	if use := c.TenantUsage("t"); use.CPUMilli != 0 || use.MemoryMB != 0 {
		t.Fatalf("quota not released: %+v", use)
	}
	if _, err := c.DeployContext(context.Background(), "ops", spec("c", "t", "acme/analytics:2.0.1", IsolationSoft)); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("deploy on empty cluster: %v", err)
	}
}

// TestFailoverSourceAndTargetSimultaneous fails two nodes concurrently —
// the rescheduling target of the first can be the second to die. The
// calls serialize on the cluster lock in either order; afterwards no
// workload may sit on a dead node and accounting must balance.
func TestFailoverSourceAndTargetSimultaneous(t *testing.T) {
	for round := 0; round < 20; round++ {
		reg := container.NewRegistry()
		reg.Push(container.AnalyticsImage(), nil)
		c := NewCluster("pair", reg, Settings{})
		c.AddNode("n1", Resources{CPUMilli: 2000, MemoryMB: 2048})
		c.AddNode("n2", Resources{CPUMilli: 2000, MemoryMB: 2048})
		c.AddNode("n3", Resources{CPUMilli: 500, MemoryMB: 512}) // room for one
		for i := 0; i < 4; i++ {
			s := spec(fmt.Sprintf("w%d", i), "t", "acme/analytics:2.0.1", IsolationSoft)
			if _, err := c.DeployContext(context.Background(), "ops", s); err != nil {
				t.Fatalf("deploy %d: %v", i, err)
			}
		}
		var wg sync.WaitGroup
		for _, n := range []string{"n1", "n2"} {
			wg.Add(1)
			go func(n string) {
				defer wg.Done()
				if _, err := c.FailNode(n); err != nil {
					t.Errorf("fail %s: %v", n, err)
				}
			}(n)
		}
		wg.Wait()
		live := map[string]bool{}
		for _, n := range c.Nodes() {
			live[n] = true
		}
		if !live["n3"] || len(live) != 1 {
			t.Fatalf("live nodes = %v", c.Nodes())
		}
		var cpu int
		for _, w := range c.Workloads() {
			if !live[w.Node] {
				t.Fatalf("workload %s on dead node %s", w.Spec.Name, w.Node)
			}
			cpu += w.Spec.Resources.CPUMilli
		}
		// Survivor capacity fits exactly one workload; quota must track
		// exactly the surviving set.
		if len(c.Workloads()) > 1 {
			t.Fatalf("survivor overloaded: %v", c.Workloads())
		}
		if use := c.TenantUsage("t"); use.CPUMilli != cpu {
			t.Fatalf("usage %d != placed %d", use.CPUMilli, cpu)
		}
		for _, u := range c.Utilization() {
			if u.Used.CPUMilli > u.Capacity.CPUMilli || u.Used.CPUMilli < 0 {
				t.Fatalf("utilization out of bounds: %+v", u)
			}
		}
	}
}

// TestFailoverReadmissionAfterRecovery evicts under capacity pressure,
// brings a node back, and re-admits the evicted workload: its name and
// quota reservation must have been fully released by the eviction.
func TestFailoverReadmissionAfterRecovery(t *testing.T) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("recover", reg, Settings{})
	c.AddNode("n1", Resources{CPUMilli: 500, MemoryMB: 512})
	c.SetQuota("t", Resources{CPUMilli: 500, MemoryMB: 512})
	if _, err := c.DeployContext(context.Background(), "ops", spec("only", "t", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatal(err)
	}
	res, err := c.FailNode("n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evicted) != 1 {
		t.Fatalf("eviction expected: %+v", res)
	}
	// Recovery: the node re-joins (fresh state) and the same workload
	// name deploys again under the same tight quota.
	c.AddNode("n1", Resources{CPUMilli: 500, MemoryMB: 512})
	w, err := c.DeployContext(context.Background(), "ops", spec("only", "t", "acme/analytics:2.0.1", IsolationSoft))
	if err != nil {
		t.Fatalf("re-admission after recovery: %v", err)
	}
	if w.Node != "n1" {
		t.Fatalf("re-admitted to %s", w.Node)
	}
	if use := c.TenantUsage("t"); use.CPUMilli != 500 {
		t.Fatalf("usage after re-admission = %+v", use)
	}
}

func TestFailUnknownNode(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	if _, err := c.FailNode("ghost"); err == nil {
		t.Fatal("FailNode(ghost) succeeded")
	}
}

func TestNodesAndUtilization(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	if got := c.Nodes(); len(got) != 2 || got[0] != "olt-01" {
		t.Fatalf("Nodes = %v", got)
	}
	if _, err := c.DeployContext(context.Background(), "ops", spec("w", "t", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatal(err)
	}
	util := c.Utilization()
	total := 0
	for _, u := range util {
		total += u.Used.CPUMilli
	}
	if total != 500 {
		t.Fatalf("total used = %d", total)
	}
	if _, err := c.FailNode("olt-02"); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes(); len(got) != 1 {
		t.Fatalf("Nodes after failure = %v", got)
	}
}
