package orchestrator

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"genio/internal/container"
)

// fleetCluster builds a cluster of n equal nodes with the analytics
// image pushed, the shape of a real-size fleet.
func fleetCluster(tb testing.TB, n int) *Cluster {
	tb.Helper()
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("fleet", reg, Settings{})
	for i := 0; i < n; i++ {
		c.AddNode(fmt.Sprintf("node-%03d", i), Resources{CPUMilli: 16000, MemoryMB: 32768})
	}
	return c
}

// TestScanTakesNoNodeLock pins the candidate table's read side: with
// every node lock but the winner's held, a deploy still scans the whole
// fleet and commits, and a fleet read still answers.
func TestScanTakesNoNodeLock(t *testing.T) {
	c := fleetCluster(t, 8)
	ctx := context.Background()
	// Binpack prefers the fullest node: the seed's node wins the next
	// placement.
	if _, err := c.DeployContext(ctx, "ops", WorkloadSpec{Name: "seed", Tenant: "acme",
		ImageRef: "acme/analytics:2.0.1", Resources: Resources{CPUMilli: 4000, MemoryMB: 4096}}); err != nil {
		t.Fatal(err)
	}
	winner := c.Workloads()[0].Node
	var held []*node
	for _, n := range c.candidates {
		if n.name != winner {
			n.mu.Lock()
			held = append(held, n)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.DeployContext(ctx, "ops", policySpec("next", "acme", PlacementBinpack))
		if err == nil && len(c.Utilization()) != 8 {
			err = fmt.Errorf("utilization lost rows")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deploy blocked on a node lock it does not need")
	}
	for _, n := range held {
		n.mu.Unlock()
	}
	if w, _ := c.Workload("next"); w.Node != winner {
		t.Fatalf("next placed on %s, want the binpack winner %s", w.Node, winner)
	}
}

// TestTenantCountsSurviveInterning spreads tenants first seen at
// different fleet sizes — so rows are widened both by interning and by
// joining late — and holds every row's counts to the workload table.
func TestTenantCountsSurviveInterning(t *testing.T) {
	c := fleetCluster(t, 3)
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if i == 20 {
			c.AddNode("node-late", Resources{CPUMilli: 16000, MemoryMB: 32768})
		}
		tenant := fmt.Sprintf("tenant-%02d", i%13)
		if _, err := c.DeployContext(ctx, "ops", policySpec(fmt.Sprintf("w-%02d", i), tenant, PlacementSpread)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			if err := c.Stop(fmt.Sprintf("w-%02d", i-3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkTable(t, c)
	c.ImportState(c.ExportState(), nil)
	checkTable(t, c)
}

// checkTable recomputes every row of the candidate table from the
// workload table.
func checkTable(t *testing.T, c *Cluster) {
	t.Helper()
	type row struct {
		used    Resources
		placed  int
		tenants map[string]int
	}
	want := map[string]*row{}
	for _, n := range c.Nodes() {
		want[n] = &row{tenants: map[string]int{}}
	}
	for _, w := range c.Workloads() {
		r := want[w.Node]
		r.used = r.used.Add(w.Spec.Resources)
		r.placed++
		r.tenants[w.Spec.Tenant]++
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.candidates {
		r := want[n.name]
		if got := n.used.load(); got != r.used {
			t.Fatalf("%s used = %+v, want %+v", n.name, got, r.used)
		}
		if got := int(n.placed.Load()); got != r.placed {
			t.Fatalf("%s placed = %d, want %d", n.name, got, r.placed)
		}
		for tenant, id := range c.tenantIDs {
			if got := int(n.tenants[id].Load()); got != r.tenants[tenant] {
				t.Fatalf("%s tenant %s count = %d, want %d", n.name, tenant, got, r.tenants[tenant])
			}
		}
	}
}

// TestCandidateTableStorm races deploys, stops, cordon flips, drains
// and fleet reads over one small fleet (run it under -race), then holds
// every row to the workload table.
func TestCandidateTableStorm(t *testing.T) {
	c := fleetCluster(t, 6)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				name := fmt.Sprintf("g%d-%02d", g, i)
				policy := PlacementBinpack
				if i%2 == 0 {
					policy = PlacementSpread
				}
				spec := policySpec(name, fmt.Sprintf("tenant-%d", (g+i)%5), policy)
				if i%5 == 0 {
					spec.Isolation = IsolationHard
				}
				if _, err := c.DeployContext(ctx, "ops", spec); err != nil && !isCapacityErr(err) {
					t.Error(err)
					return
				}
				if i%3 == 2 {
					_ = c.Stop(fmt.Sprintf("g%d-%02d", g, i-1))
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			node := fmt.Sprintf("node-%03d", i%6)
			switch i % 3 {
			case 0:
				_ = c.Cordon(node)
			case 1:
				_, _ = c.Drain(ctx, node)
			default:
				_ = c.Uncordon(node)
			}
			_ = c.Utilization()
		}
	}()
	wg.Wait()
	checkTable(t, c)
}

// BenchmarkDeploySpread256 is one spread deploy and its stop on a
// 256-node fleet with sixteen tenants: the scheduling pass over the
// candidate table dominates.
func BenchmarkDeploySpread256(b *testing.B) {
	c := fleetCluster(b, 256)
	ctx := context.Background()
	for i := 0; i < 1024; i++ { // a fleet with history
		if _, err := c.DeployContext(ctx, "ops", policySpec(fmt.Sprintf("bg-%04d", i), fmt.Sprintf("tenant-%02d", i%16), PlacementSpread)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := policySpec("probe", fmt.Sprintf("tenant-%02d", i%16), PlacementSpread)
		if _, err := c.DeployContext(ctx, "ops", spec); err != nil {
			b.Fatal(err)
		}
		if err := c.Stop("probe"); err != nil {
			b.Fatal(err)
		}
	}
}
