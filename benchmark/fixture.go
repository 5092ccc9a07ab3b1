package main

import (
	"fmt"

	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/orchestrator"
	"genio/internal/persist"
	"genio/internal/rbac"
)

// The fixture is everything a workload needs to exist on the platform
// before the first request: nodes, a trusted publisher with its pushed
// images, the client's least-privilege role, unlimited tenant quotas.
// It is data (generated by the loader, shipped to the daemon as JSON),
// so the daemon never sees the seed or the workload name — and the
// in-process ladder rungs build the byte-identical platform from the
// same value.

const (
	clientSubject = "bench-loader"
	publisherName = "acme"

	// hotRef is the one signed image every cache-hot deploy references.
	hotRef = "acme/analytics:2.0.1"
	// minerRef is signed but trips the admission scanners (typed
	// *orchestrator.AdmissionError); backdoorRef is unsigned (typed
	// *orchestrator.ImagePullError).
	minerRef    = "freestuff/optimizer:latest"
	backdoorRef = "freestuff/log-shipper:3.1"
)

type memberSpec struct {
	Name   string `json:"name"`
	Region string `json:"region"`
}

type nodeSpec struct {
	Cluster  string `json:"cluster,omitempty"`
	Name     string `json:"name"`
	CPUMilli int    `json:"cpuMilli"`
	MemoryMB int    `json:"memoryMB"`
}

type fixtureSpec struct {
	Members []memberSpec      `json:"members,omitempty"` // empty = one cluster
	Pins    map[string]string `json:"pins,omitempty"`    // tenant -> region
	Nodes   []nodeSpec        `json:"nodes"`
	Tenants []string          `json:"tenants"`
	// Variants is how many distinct signed clean images the registry
	// holds beside the hot one: tag variants of the analytics image, so
	// each has its own digest and misses the signature and verdict caches.
	Variants int `json:"variants"`
}

// variantRef names the i-th clean tag variant.
func variantRef(i int) string { return fmt.Sprintf("acme/analytics:v%05d", i) }

func variantImage(i int) *container.Image {
	img := container.AnalyticsImage()
	img.Tag = fmt.Sprintf("v%05d", i)
	return img
}

// buildPlatform assembles the platform exactly as cmd/geniod does with
// -data-dir (and -federation): SecureConfig, a WAL store recovered
// inside core.New, nothing switched off. The platform owns the store
// from here on, also when this fails.
func buildPlatform(fx *fixtureSpec, store persist.Store) (*core.Platform, error) {
	opts := []core.Option{core.WithStore(store)}
	if len(fx.Members) > 0 {
		members := make([]core.FederationMember, len(fx.Members))
		for i, m := range fx.Members {
			members[i] = core.FederationMember{Name: m.Name, Region: m.Region}
		}
		opts = append(opts, core.WithFederation(members...))
	}
	p, err := core.New(core.SecureConfig(), opts...)
	if err != nil {
		_ = store.Close() // New hands the store over only on success
		return nil, err
	}
	if err := seedFixture(p, fx); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// seedFixture provisions the fixture onto a (possibly recovered)
// platform. Re-seeding recovered state is safe the same way the demo
// fixture is: recovered nodes skip re-registration and the images are
// content-addressed.
func seedFixture(p *core.Platform, fx *fixtureSpec) error {
	for tenant, region := range fx.Pins {
		if err := p.PinTenant(tenant, region); err != nil {
			return err
		}
	}
	for _, n := range fx.Nodes {
		if _, err := p.AddEdgeNodeIn(n.Cluster, n.Name, orchestrator.Resources{CPUMilli: n.CPUMilli, MemoryMB: n.MemoryMB}); err != nil {
			return fmt.Errorf("node %s: %w", n.Name, err)
		}
	}
	pub, err := container.NewPublisher(publisherName)
	if err != nil {
		return err
	}
	p.Registry.TrustPublisher(publisherName, pub.PublicKey())
	push := func(img *container.Image) {
		sig := pub.Sign(img)
		p.Registry.Push(img, &sig)
	}
	push(container.AnalyticsImage())
	push(container.CryptominerImage())
	for i := 0; i < fx.Variants; i++ {
		push(variantImage(i))
	}
	p.Registry.Push(container.BackdoorImage(), nil)

	// Least privilege: exactly the verbs the loader issues, deploys
	// scoped per tenant.
	perms := []rbac.Permission{
		{Verb: "watch", Resource: "deployments"},
		{Verb: "get", Resource: "nodes"},
		{Verb: "create", Resource: "nodes"},
		{Verb: "update", Resource: "nodes"},
		{Verb: "get", Resource: "incidents"},
		{Verb: "get", Resource: "events"},
	}
	for _, t := range fx.Tenants {
		perms = append(perms, rbac.Permission{Verb: "create", Resource: "workloads", Namespace: t})
	}
	p.RBAC.SetRole(rbac.Role{Name: "bench-loader", Permissions: perms})
	if err := p.RBAC.Bind(clientSubject, "bench-loader"); err != nil {
		return err
	}

	// No wire undeploy exists, so the default 2000m/4096MB tenant quota
	// would end every run after a few dozen deploys.
	for _, m := range p.Clusters() {
		c, err := p.ClusterByName(m.Name)
		if err != nil {
			return err
		}
		for _, t := range fx.Tenants {
			c.SetQuota(t, orchestrator.Resources{})
		}
	}
	return nil
}
