// Federation mode: a Platform normally drives one orchestrator cluster
// (one OLT site); WithFederation turns it into the control plane of N
// named clusters (regions / sites) routed through internal/federation's
// region-filter → consistent-hash-ring → per-cluster-scheduler
// hierarchy. The default cluster becomes the first federation member
// and keeps the platform-level attachments (durable store, far-edge
// admission); the other members are its peers (orchestrator's NewPeer),
// sharing the platform's registry, RBAC engine, audit and warm-event
// spine — and one admission chain: a verdict is a function of the image,
// so the scanners, the clean-verdict cache and the in-flight scan table
// are platform-wide and a digest is scanned once whichever member the
// ring picks, while scheduling and quotas stay per member. Every fresh
// verdict is logged through the default member's store sink, but only
// that member's placements persist. Federation membership and tenant
// pins are boot configuration, not durable state.
package core

import (
	"context"
	"fmt"

	"genio/internal/federation"
	"genio/internal/orchestrator"
)

// FederationMember names one cluster of a federated platform.
type FederationMember struct {
	Name   string
	Region string
}

// WithFederation runs the platform in federation mode over the given
// members. The first member adopts the platform's default cluster (and
// with it the durable store, when one is configured); the rest are
// created fresh with the same settings. Deploys route through the
// federation hierarchy; a single-member federation behaves exactly like
// the plain platform plus region filtering.
func WithFederation(members ...FederationMember) Option {
	return func(p *Platform) {
		p.fedMembers = append([]FederationMember(nil), members...)
	}
}

// initFederation builds the federation from p.fedMembers. Called from
// New after options and clock wiring; the members after the first are
// peers of the default cluster, so the scanners New registers on it gate
// them all.
func (p *Platform) initFederation() error {
	fed := federation.New(p.Registry)
	fed.SetAuditSink(p.publishAudit)
	if p.now != nil {
		fed.SetClock(p.now)
	}
	for i, m := range p.fedMembers {
		var c *orchestrator.Cluster
		if i == 0 {
			// The default cluster is the first member: it keeps the
			// store's mutation sink and far-edge admission, it just
			// answers to its federation name from here on.
			p.Cluster.Name = m.Name
			c = p.Cluster
		} else {
			c = p.Cluster.NewPeer(m.Name)
		}
		if err := fed.AddCluster(m.Name, m.Region, c); err != nil {
			return err
		}
		p.fedClusters = append(p.fedClusters, c)
	}
	p.Federation = fed
	return nil
}

// allClusters returns every cluster the platform drives: the federation
// members, or just the default cluster outside federation mode.
func (p *Platform) allClusters() []*orchestrator.Cluster {
	if len(p.fedClusters) > 0 {
		return p.fedClusters
	}
	return []*orchestrator.Cluster{p.Cluster}
}

// Clusters reports the placement domains: federation member snapshots,
// or a synthesized single entry for a plain platform — so fleet tooling
// renders identically either way.
func (p *Platform) Clusters() []federation.Member {
	if p.Federation != nil {
		return p.Federation.Clusters()
	}
	return []federation.Member{{
		Name:      p.Cluster.Name,
		Nodes:     len(p.Cluster.Nodes()),
		Workloads: p.Cluster.WorkloadCount(),
	}}
}

// ClusterByName resolves a placement domain by name. "" means the
// default cluster.
func (p *Platform) ClusterByName(name string) (*orchestrator.Cluster, error) {
	if name == "" || name == p.Cluster.Name {
		return p.Cluster, nil
	}
	if p.Federation != nil {
		if c, ok := p.Federation.Cluster(name); ok {
			return c, nil
		}
	}
	return nil, &federation.ClusterNotFoundError{Cluster: name}
}

// PinTenant pins a tenant's workloads to a region (data residency).
// A no-op error outside federation mode, since a single cluster has no
// region boundary to enforce.
func (p *Platform) PinTenant(tenant, region string) error {
	if p.Federation == nil {
		return fmt.Errorf("core: region pinning requires federation mode")
	}
	p.Federation.PinTenant(tenant, region)
	return nil
}

// AddEdgeNodeIn provisions an OLT through the full infrastructure
// pipeline and registers it with the named federation cluster ("" = the
// default cluster). Context-free wrapper over AddEdgeNodeInContext.
func (p *Platform) AddEdgeNodeIn(cluster, name string, capacity orchestrator.Resources) (*EdgeNode, error) {
	return p.AddEdgeNodeInContext(context.Background(), cluster, name, capacity)
}

// AddEdgeNodeInContext is AddEdgeNodeIn with cancellation. Node names
// are platform-global (the provisioning registry is shared), whatever
// cluster the node schedules into.
func (p *Platform) AddEdgeNodeInContext(ctx context.Context, cluster, name string, capacity orchestrator.Resources) (*EdgeNode, error) {
	target, err := p.ClusterByName(cluster)
	if err != nil {
		return nil, err
	}
	return p.addEdgeNodeOn(ctx, target, name, capacity)
}

// EvacuateCluster handles a failed federation member: its workloads are
// re-placed through the ring across the survivors (region pins still
// hard) and the member leaves the federation. The default cluster — the
// platform's control-plane home, carrying the durable store and
// far-edge admission — cannot be evacuated; fail its nodes individually
// instead.
func (p *Platform) EvacuateCluster(subject, name string) (*federation.EvacuationResult, error) {
	if p.closed.Load() {
		return nil, &ClosedError{Op: "evacuate-cluster"}
	}
	if p.Federation == nil {
		return nil, &federation.ClusterNotFoundError{Cluster: name}
	}
	if name == p.Cluster.Name {
		return nil, fmt.Errorf("core: cluster %s is the platform's default member and cannot be evacuated", name)
	}
	res, err := p.Federation.EvacuateCluster(subject, name)
	if err != nil {
		return nil, err
	}
	// Re-placements bypass deployObserved; a lost one is a rejected deploy
	// all the same, so it gets the same incidents and the same count.
	for _, l := range res.Lost {
		p.recordAdmissionIncidents(l.Spec, l.Err)
		p.publishMetric("deploy.rejected", 1, l.Spec.Tenant)
	}
	p.publishMetric("cluster.evacuated", float64(len(res.Moved)), name)
	return res, nil
}
