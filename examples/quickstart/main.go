// Quickstart: bring up a secure GENIO platform, provision an edge OLT and
// a far-edge ONU, publish a signed image, and deploy tenant workloads
// through the v2 control-plane API — an asynchronous, cancellable deploy
// future with lifecycle watch and typed rejection errors.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/orchestrator"
	"genio/internal/rbac"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Platform in the paper's security-by-design posture.
	p, err := core.New(core.SecureConfig())
	if err != nil {
		return fmt.Errorf("platform: %w", err)
	}
	defer p.Close()

	// 2. An OLT in a central office becomes an edge hub: hardened OS,
	//    verified boot, attestation, sealed storage, FIM baseline.
	node, err := p.AddEdgeNode("olt-01", orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384})
	if err != nil {
		return fmt.Errorf("edge node: %w", err)
	}
	fmt.Printf("edge node %s: attested=%v sealed-storage=%v\n",
		node.Name, node.Attested, !node.Volume.Locked())

	// 3. A far-edge ONU onboards with certificate-based mutual auth.
	onu, err := p.AttachONU("olt-01", "onu-0001")
	if err != nil {
		return fmt.Errorf("onu: %w", err)
	}
	fmt.Printf("onu %s active on XGEM port %d\n", onu.Serial, onu.Port())

	// 4. A business user publishes a signed container image.
	pub, err := container.NewPublisher("acme")
	if err != nil {
		return err
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	img := container.AnalyticsImage()
	sig := pub.Sign(img)
	p.Registry.Push(img, &sig)

	// 5. The tenant's CI identity gets least-privilege deploy rights.
	p.RBAC.SetRole(rbac.Role{Name: "acme-deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
	}})
	if err := p.RBAC.Bind("acme-ci", "acme-deployer"); err != nil {
		return err
	}

	// 6. Watch the deployment lifecycle the way genioctl or a SIEM
	//    exporter would: a filtered channel over the deploy.lifecycle
	//    topic.
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	lifecycle, err := p.Watch(watchCtx, core.WatchSelector{Tenant: "acme"})
	if err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for ev := range lifecycle {
			fmt.Printf("  lifecycle: %-10s %s\n", ev.Workload, ev.State)
			if ev.State.Terminal() {
				return
			}
		}
	}()

	// 7. Deploy asynchronously through the full admission pipeline, under
	//    a deadline: cancellation or expiry aborts the in-flight scans
	//    without ever placing the workload.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d, err := p.DeployAsync(ctx, "acme-ci", orchestrator.WorkloadSpec{
		Name: "analytics", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	})
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	w, err := d.Result()
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	<-watched
	fmt.Printf("workload %s running on %s in VM %s\n", w.Spec.Name, w.Node, w.VMID)

	// 8. Rejections are typed: a hostile image reports the scanner that
	//    caught it, not an opaque string.
	p.Registry.Push(container.CryptominerImage(), nil) // adversary upload, unsigned
	_, err = p.DeployContext(context.Background(), "acme-ci", orchestrator.WorkloadSpec{
		Name: "optimizer", Tenant: "acme", ImageRef: "freestuff/optimizer:latest",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	})
	var pull *orchestrator.ImagePullError
	switch {
	case errors.As(err, &pull):
		fmt.Printf("hostile image rejected at pull: %v\n", pull.Err)
	case errors.Is(err, orchestrator.ErrRejected):
		fmt.Printf("hostile image rejected: %v\n", err)
	case err == nil:
		return fmt.Errorf("hostile image was admitted")
	default:
		return fmt.Errorf("deploy optimizer: %w", err)
	}

	fmt.Println()
	fmt.Println(p.RenderDeployment())
	return nil
}
