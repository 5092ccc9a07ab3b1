// Rebalance: the placement engine end to end. A 4-node fleet fills up
// under the binpack default (density: one hot node), the hot node is
// cordoned and drained — live migrations stream on the node.drain spine
// topic — and a second wave deploys under the spread policy while the
// lifecycle watch API reports where each workload lands. The final
// utilization table shows the rebalanced fleet.
package main

import (
	"context"
	"fmt"
	"log"

	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/orchestrator"
	"genio/internal/rbac"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	p, err := core.New(core.SecureConfig())
	if err != nil {
		return fmt.Errorf("platform: %w", err)
	}
	defer p.Close()

	// A 4-node fleet of equal OLTs.
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("olt-%02d", i)
		if _, err := p.AddEdgeNode(name, orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384}); err != nil {
			return fmt.Errorf("edge node %s: %w", name, err)
		}
	}

	// Signed image + deploy rights + room to rebalance.
	pub, err := container.NewPublisher("acme")
	if err != nil {
		return err
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	img := container.AnalyticsImage()
	sig := pub.Sign(img)
	p.Registry.Push(img, &sig)
	p.RBAC.SetRole(rbac.Role{Name: "acme-deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
	}})
	if err := p.RBAC.Bind("acme-ci", "acme-deployer"); err != nil {
		return err
	}
	p.Cluster.SetQuota("acme", orchestrator.Resources{CPUMilli: 16000, MemoryMB: 32768})

	spec := func(name, policy string) orchestrator.WorkloadSpec {
		return orchestrator.WorkloadSpec{
			Name: name, Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
			Isolation: orchestrator.IsolationSoft, PlacementPolicy: policy,
			Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
		}
	}

	// Phase 1 — binpack (the density default): six workloads, one node.
	fmt.Println("phase 1: deploy 6 workloads under binpack (density default)")
	for i := 0; i < 6; i++ {
		w, err := p.DeployContext(context.Background(), "acme-ci", spec(fmt.Sprintf("dense-%d", i), ""))
		if err != nil {
			return fmt.Errorf("deploy dense-%d: %w", i, err)
		}
		fmt.Printf("  %-8s -> %s (strategy %s, score %.3f)\n", w.Spec.Name, w.Node, w.Strategy, w.Score)
	}
	printUtilization(p)

	// Phase 2 — cordon + drain the hot node. Every migration publishes
	// on the node.drain topic; subscribe the way a dashboard would.
	hot := hottestNode(p)
	sub, err := p.Subscribe("rebalance-drain", []events.Topic{events.TopicNodeDrain},
		func(batch []events.Event) {
			for _, ev := range batch {
				if de, ok := ev.Payload.(orchestrator.DrainEvent); ok && de.Phase == orchestrator.DrainMigrated {
					fmt.Printf("  drain: %-8s %s -> %s (score %.3f)\n", de.Workload, de.Node, de.Target, de.Score)
				}
			}
		})
	if err != nil {
		return err
	}
	fmt.Printf("\nphase 2: cordon + drain hot node %s\n", hot)
	if err := p.Cordon(hot); err != nil {
		return err
	}
	res, err := p.Drain(context.Background(), hot)
	if err != nil {
		return fmt.Errorf("drain %s: %w", hot, err)
	}
	p.Flush()
	sub.Cancel()
	fmt.Printf("  drained %s: %d migrated, node stays cordoned\n", hot, len(res.Migrated))
	printUtilization(p)

	// Phase 3 — spread re-placement, observed through the lifecycle
	// watch API: each new workload lands on the least-loaded node.
	fmt.Println("\nphase 3: deploy 4 workloads under spread, via the watch API")
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	lifecycle, err := p.Watch(watchCtx, core.WatchSelector{Tenant: "acme", TerminalOnly: true})
	if err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	done := make(chan struct{})
	const spreadWave = 4
	go func() {
		defer close(done)
		seen := 0
		for ev := range lifecycle {
			fmt.Printf("  watch: %-8s %-9s on %s\n", ev.Workload, ev.State, ev.Node)
			if seen++; seen == spreadWave {
				return
			}
		}
	}()
	// Lifecycle events flow from the async deploy surface; pipeline the
	// whole wave, then await the futures.
	futures := make([]*core.Deployment, 0, spreadWave)
	for i := 0; i < spreadWave; i++ {
		d, err := p.DeployAsync(context.Background(), "acme-ci", spec(fmt.Sprintf("ha-%d", i), orchestrator.PlacementSpread))
		if err != nil {
			return fmt.Errorf("deploy ha-%d: %w", i, err)
		}
		futures = append(futures, d)
	}
	for i, d := range futures {
		if _, err := d.Result(); err != nil {
			return fmt.Errorf("deploy ha-%d: %w", i, err)
		}
	}
	<-done
	printUtilization(p)
	return nil
}

// hottestNode returns the node carrying the most workloads.
func hottestNode(p *core.Platform) string {
	var hot string
	max := -1
	for _, u := range p.Cluster.Utilization() {
		if u.Workloads > max {
			hot, max = u.Node, u.Workloads
		}
	}
	return hot
}

// printUtilization renders the fleet table.
func printUtilization(p *core.Platform) {
	fmt.Println("  fleet:")
	for _, u := range p.Cluster.Utilization() {
		state := "ready"
		if u.Cordoned {
			state = "cordoned"
		}
		fmt.Printf("    %-8s %9s %2d workload(s)  %s\n",
			u.Node, fmt.Sprintf("%dm/%dm", u.Used.CPUMilli, u.Capacity.CPUMilli), u.Workloads, state)
	}
}
