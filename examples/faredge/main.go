// Faredge: ultra-low-latency workloads on ONU hardware (the far-edge layer
// of Figure 1) plus the shared-wavelength upstream path: deployments pass
// the same admission controls as the edge, ONU capacity is scarce, and the
// DBA grant cap keeps a greedy device from starving its neighbours.
package main

import (
	"context"
	"fmt"
	"log"

	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/orchestrator"
	"genio/internal/pon"
	"genio/internal/rbac"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	p, err := core.New(core.SecureConfig())
	if err != nil {
		return err
	}
	defer p.Close()
	if _, err := p.AddEdgeNode("olt-01", orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384}); err != nil {
		return err
	}
	var onus []*pon.ONU
	for i := 1; i <= 4; i++ {
		onu, err := p.AttachONU("olt-01", fmt.Sprintf("onu-%04d", i))
		if err != nil {
			return err
		}
		onus = append(onus, onu)
	}

	pub, err := container.NewPublisher("acme")
	if err != nil {
		return err
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	img := container.AnalyticsImage()
	sig := pub.Sign(img)
	p.Registry.Push(img, &sig)
	miner := container.CryptominerImage()
	minerSig := pub.Sign(miner) // insider-signed malicious image
	p.Registry.Push(miner, &minerSig)

	p.RBAC.SetRole(rbac.Role{Name: "acme-deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
	}})
	if err := p.RBAC.Bind("acme-ci", "acme-deployer"); err != nil {
		return err
	}

	// Ultra-low-latency camera analytics on the customer-premises ONU.
	w, err := p.DeployFarEdge(ctx, "acme-ci", "olt-01", "onu-0001", orchestrator.WorkloadSpec{
		Name: "cam-analytics", Tenant: "acme", ImageRef: img.Ref(),
		Resources: orchestrator.Resources{CPUMilli: 400, MemoryMB: 384},
	})
	if err != nil {
		return fmt.Errorf("far-edge deploy: %w", err)
	}
	fmt.Printf("far-edge workload %s on %s/%s (soft isolation forced)\n",
		w.Spec.Name, w.Node, w.Serial)

	// Admission scanning still applies at the far edge.
	if _, err := p.DeployFarEdge(ctx, "acme-ci", "olt-01", "onu-0001", orchestrator.WorkloadSpec{
		Name: "optimizer", Tenant: "acme", ImageRef: miner.Ref(),
		Resources: orchestrator.Resources{CPUMilli: 100, MemoryMB: 128},
	}); err != nil {
		fmt.Printf("malicious far-edge deploy rejected: %v\n", err)
	}

	// Upstream: every ONU ships sensor batches; onu-0002 turns greedy and
	// inflates its queue reports 50x.
	node, err := p.Node("olt-01")
	if err != nil {
		return err
	}
	for _, onu := range onus {
		for i := 0; i < 4; i++ {
			if err := onu.QueueUpstream(make([]byte, 100)); err != nil {
				return err
			}
		}
	}
	onus[1].SetReportInflation(50)

	uncapped, err := node.OLT.RunDBACycle(pon.DBAConfig{CycleBytes: 800})
	if err != nil {
		return err
	}
	fmt.Printf("\nDBA without SLA cap: fairness %.2f\n", pon.FairnessIndex(uncapped.Grants))
	for _, g := range uncapped.Grants {
		fmt.Printf("  %s reported=%d granted=%d\n", g.Serial, g.Reported, g.Granted)
	}

	for _, onu := range onus {
		for i := 0; i < 4; i++ {
			if err := onu.QueueUpstream(make([]byte, 100)); err != nil {
				return err
			}
		}
	}
	capped, err := node.OLT.RunDBACycle(pon.DBAConfig{CycleBytes: 800, PerONUCap: 200})
	if err != nil {
		return err
	}
	fmt.Printf("\nDBA with 200B SLA cap: fairness %.2f\n", pon.FairnessIndex(capped.Grants))
	for _, g := range capped.Grants {
		fmt.Printf("  %s reported=%d granted=%d\n", g.Serial, g.Reported, g.Granted)
	}
	return nil
}
