// Package demo seeds the canonical demo fixture shared by genioctl's
// local (in-process) mode and geniod's -demo flag: a two-node edge
// cluster, a trusted publisher with the signed image set (clean,
// SAST-flagged, vulnerable, malicious), one unsigned hostile image, and
// a wildcard admin role bound to the given control-plane subjects.
//
// Keeping the fixture in one place is what makes "genioctl against a
// -demo geniod" behave identically to "genioctl with no --server": both
// sides operate on the same cluster shape, image set, and RBAC
// bindings.
package demo

import (
	"context"
	"fmt"

	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/orchestrator"
	"genio/internal/rbac"
)

// Platform builds the demo platform in the given posture and binds each
// subject to a wildcard admin role.
func Platform(cfg core.Config, subjects ...string) (*core.Platform, error) {
	return PlatformOpts(cfg, nil, subjects...)
}

// PlatformOpts is Platform with platform construction options threaded
// through — geniod uses it to attach a durable store (core.WithStore)
// under the demo fixture. Seeding over recovered state is safe: node
// re-registration is skipped for recovered members and the image set is
// content-addressed, so re-pushing it reproduces the digests the
// recovered admission-verdict cache was keyed by.
func PlatformOpts(cfg core.Config, opts []core.Option, subjects ...string) (*core.Platform, error) {
	p, err := core.New(cfg, opts...)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	if err := Seed(p, subjects...); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// Seed provisions the fixture onto an existing platform: nodes, images,
// and admin bindings for the given subjects.
func Seed(p *core.Platform, subjects ...string) error {
	for _, node := range []string{"olt-01", "olt-02"} {
		if _, err := p.AddEdgeNode(node, orchestrator.Resources{CPUMilli: 16000, MemoryMB: 32768}); err != nil {
			return fmt.Errorf("edge node %s: %w", node, err)
		}
	}
	pub, err := container.NewPublisher("acme")
	if err != nil {
		return err
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	for _, img := range []*container.Image{
		container.AnalyticsImage(),
		container.IoTGatewayImage(),
		container.MLInferenceImage(),
		container.CryptominerImage(),
	} {
		sig := pub.Sign(img)
		p.Registry.Push(img, &sig)
	}
	p.Registry.Push(container.BackdoorImage(), nil) // unsigned
	p.RBAC.SetRole(rbac.Role{Name: "demo-admin", Permissions: []rbac.Permission{
		{Verb: "*", Resource: "*", Namespace: "*"},
	}})
	for _, subject := range subjects {
		if err := p.RBAC.Bind(subject, "demo-admin"); err != nil {
			return err
		}
	}
	return nil
}

// Workloads deploys n small clean workloads for tenant acme as the
// given subject under the binpack default — stacked traffic, so the
// node-lifecycle subcommands have a hot node to cordon or drain.
func Workloads(p *core.Platform, subject string, n int) error {
	for i := 0; i < n; i++ {
		if _, err := p.DeployContext(context.Background(), subject, orchestrator.WorkloadSpec{
			Name: fmt.Sprintf("app-%02d", i), Tenant: "acme",
			ImageRef: "acme/analytics:2.0.1", Isolation: orchestrator.IsolationSoft,
			Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
		}); err != nil {
			return fmt.Errorf("fixture deploy %d: %w", i, err)
		}
	}
	return nil
}
