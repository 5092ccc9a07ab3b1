package federation

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"genio/internal/container"
	"genio/internal/orchestrator"
)

// DefaultLoadFactorPct is the bounded-load factor (percent): a cluster
// may hold at most ceil((total+1) * factor / clusters) workloads before
// the ring passes a deploy to the next position. 125% is the classic
// consistent-hashing-with-bounded-loads setting — tight enough that a
// hot (tenant, image) key cannot swamp its home cluster, loose enough
// that routing stays sticky for warm slots.
const DefaultLoadFactorPct = 125

// Placement records where a federated deploy landed.
type Placement struct {
	Cluster string
	Node    string
	VMID    string
}

// Member is a read-only snapshot of one federated cluster.
type Member struct {
	Name      string
	Region    string
	Nodes     int
	Workloads int
}

// member is the live record: the cluster plus its detach latch. The
// per-member lock is the evacuation barrier — a routed deploy holds it
// shared for the duration of the member's admission pipeline, and
// detaching takes it exclusively, so after EvacuateCluster flips
// detached no new workload can ever land on the dead site (the
// guarantee the no-cross-region-leak invariant leans on).
type member struct {
	name    string
	region  string
	cluster *orchestrator.Cluster

	mu       sync.RWMutex
	detached bool
}

// tryDeploy routes one deploy into the member unless it has been
// detached. The bool reports whether the member accepted the attempt
// (false = detached, caller walks on).
func (m *member) tryDeploy(ctx context.Context, subject string, spec orchestrator.WorkloadSpec, observe func(orchestrator.DeployStage)) (*orchestrator.Workload, error, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.detached {
		return nil, nil, false
	}
	w, err := m.cluster.DeployObserved(ctx, subject, spec, observe)
	return w, err, true
}

// deferred is a member a ring walk passed over for its load alone.
type deferred struct {
	m    *member
	load int
}

// detach flips the latch, waiting out in-flight deploys first.
func (m *member) detach() {
	m.mu.Lock()
	m.detached = true
	m.mu.Unlock()
}

// Federation owns N named orchestrator clusters and routes every deploy
// through the region filter → consistent-hash ring → per-cluster
// scheduler hierarchy. Safe for concurrent use; the ring is rebuilt and
// republished on every membership change, so lookups never lock it.
type Federation struct {
	mu      sync.RWMutex
	members map[string]*member
	ring    *Ring
	pins    map[string]string // tenant -> pinned region

	registry      *container.Registry
	loadFactorPct int
	audit         orchestrator.AuditSink
	clock         func() int64
	// afterBound, nil outside tests, runs between DeployObserved's bound
	// computation and its ring walk: where concurrent commits stale it.
	afterBound func()
}

// New creates an empty federation. The registry resolves image refs to
// digests for ring keys (nil is allowed: routing then keys on the raw
// ref until a registry is attached, which only matters before wiring).
func New(registry *container.Registry) *Federation {
	return &Federation{
		members:       make(map[string]*member),
		ring:          NewRing(DefaultReplicas),
		pins:          make(map[string]string),
		registry:      registry,
		loadFactorPct: DefaultLoadFactorPct,
	}
}

// SetAuditSink installs the audit callback (the platform wires its
// spine publisher). Called outside all federation locks, like the
// cluster's own sink.
func (f *Federation) SetAuditSink(sink orchestrator.AuditSink) {
	f.mu.Lock()
	f.audit = sink
	f.mu.Unlock()
}

// SetClock installs a millisecond time source for audit and evacuation
// stamps.
func (f *Federation) SetClock(now func() int64) {
	f.mu.Lock()
	f.clock = now
	f.mu.Unlock()
}

// AddCluster joins a cluster under a name and region. The ring change
// moves only the minimal key range onto the new member.
func (f *Federation) AddCluster(name, region string, c *orchestrator.Cluster) error {
	if name == "" || c == nil {
		return fmt.Errorf("federation: cluster name and cluster are required")
	}
	f.mu.Lock()
	if _, dup := f.members[name]; dup {
		f.mu.Unlock()
		return &DuplicateClusterError{Cluster: name}
	}
	f.members[name] = &member{name: name, region: region, cluster: c}
	ring := f.rebuildRingLocked()
	_ = ring
	audit, now := f.audit, f.clock
	f.mu.Unlock()
	f.emit(audit, now, orchestrator.AuditEvent{
		Kind: "cluster-join", Node: name, Allowed: true,
		Detail: fmt.Sprintf("region=%s", region),
	})
	return nil
}

// RemoveCluster detaches a cluster administratively and returns it.
// Its workloads are NOT re-placed — that is EvacuateCluster's job; use
// RemoveCluster for planned decommissions where the site drains itself.
// In-flight deploys racing the removal either complete before the
// detach (and stay on the returned cluster) or re-route through the
// ring; none are lost.
func (f *Federation) RemoveCluster(name string) (*orchestrator.Cluster, error) {
	f.mu.Lock()
	m, ok := f.members[name]
	if !ok {
		f.mu.Unlock()
		return nil, &ClusterNotFoundError{Cluster: name}
	}
	delete(f.members, name)
	f.rebuildRingLocked()
	audit, now := f.audit, f.clock
	f.mu.Unlock()
	m.detach()
	f.emit(audit, now, orchestrator.AuditEvent{
		Kind: "cluster-remove", Node: name, Allowed: true,
		Detail: fmt.Sprintf("region=%s workloads=%d", m.region, m.cluster.WorkloadCount()),
	})
	return m.cluster, nil
}

// rebuildRingLocked republishes the ring from the member set. Callers
// hold f.mu.
func (f *Federation) rebuildRingLocked() *Ring {
	ring := NewRing(DefaultReplicas)
	for name := range f.members {
		ring.Add(name)
	}
	f.ring = ring
	return ring
}

// Clusters returns member snapshots sorted by name.
func (f *Federation) Clusters() []Member {
	f.mu.RLock()
	ms := make([]*member, 0, len(f.members))
	for _, m := range f.members {
		ms = append(ms, m)
	}
	f.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	out := make([]Member, 0, len(ms))
	for _, m := range ms {
		out = append(out, Member{
			Name:      m.name,
			Region:    m.region,
			Nodes:     len(m.cluster.Nodes()),
			Workloads: m.cluster.WorkloadCount(),
		})
	}
	return out
}

// Cluster returns the named member cluster.
func (f *Federation) Cluster(name string) (*orchestrator.Cluster, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	m, ok := f.members[name]
	if !ok {
		return nil, false
	}
	return m.cluster, true
}

// Region returns the named member's region.
func (f *Federation) Region(name string) (string, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	m, ok := f.members[name]
	if !ok {
		return "", false
	}
	return m.region, true
}

// PinTenant pins a tenant's workloads to a region (data residency).
// The pin is a hard constraint on every subsequent placement, including
// evacuations: a pinned workload that cannot fit inside its region is
// lost, never leaked across the boundary.
func (f *Federation) PinTenant(tenant, region string) {
	f.mu.Lock()
	if region == "" {
		delete(f.pins, tenant)
	} else {
		f.pins[tenant] = region
	}
	f.mu.Unlock()
}

// PinnedRegion reports a tenant's pin.
func (f *Federation) PinnedRegion(tenant string) (string, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	r, ok := f.pins[tenant]
	return r, ok
}

// Pins returns a copy of the tenant→region pin table.
func (f *Federation) Pins() map[string]string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]string, len(f.pins))
	for t, r := range f.pins {
		out[t] = r
	}
	return out
}

// resolveDigest maps an image ref to its digest for the ring key. An
// unresolvable ref keys on itself — routing stays deterministic and the
// chosen cluster's own pull produces the canonical typed error.
func (f *Federation) resolveDigest(ref string) string {
	if f.registry == nil {
		return ref
	}
	img, err := f.registry.Pull(ref)
	if err != nil {
		return ref
	}
	return img.Digest()
}

// DeployObserved routes one deploy: region filter (hard residency
// constraint), then the consistent-hash ring over the eligible clusters
// keyed by (tenant, image digest) with bounded-load overflow, then the
// chosen cluster's own filter/score scheduler. A cluster past its load
// bound — or out of node capacity — passes the deploy to the next ring
// position; if the walk places nothing, the clusters passed over for
// the bound alone are tried least loaded first, so only exhausted
// capacity ends in a FederationCapacityError (its cause nested).
// Content- and spec-determined rejections (admission denial,
// quota, RBAC, duplicate name) are final at the first cluster, since
// every cluster would return the same verdict.
func (f *Federation) DeployObserved(ctx context.Context, subject string, spec orchestrator.WorkloadSpec, observe func(orchestrator.DeployStage)) (*orchestrator.Workload, Placement, error) {
	f.mu.RLock()
	region := spec.Region
	if pin, pinned := f.pins[spec.Tenant]; pinned {
		if region != "" && region != pin {
			f.mu.RUnlock()
			return nil, Placement{}, &RegionPinnedError{
				Workload: spec.Name, Tenant: spec.Tenant, Region: pin, Requested: region,
			}
		}
		region = pin
	}
	ring := f.ring
	eligible := make(map[string]*member, len(f.members))
	for name, m := range f.members {
		if region == "" || m.region == region {
			eligible[name] = m
		}
	}
	factor := f.loadFactorPct
	audit, now := f.audit, f.clock
	f.mu.RUnlock()

	if len(eligible) == 0 {
		return nil, Placement{}, &FederationCapacityError{
			Workload: spec.Name, Tenant: spec.Tenant, Region: region,
		}
	}

	// Bounded load: ceil((total+1) * factor / n), a balancing hint from
	// one snapshot of counts the walk then re-reads live — concurrent
	// commits can lift every member past it, so it only defers members
	// to the fallback below and never refuses: only real capacity can.
	total := 0
	for _, m := range eligible {
		total += m.cluster.WorkloadCount()
	}
	bound := ((total+1)*factor + 100*len(eligible) - 1) / (100 * len(eligible))
	if f.afterBound != nil {
		f.afterBound()
	}

	digest := f.resolveDigest(spec.ImageRef)
	var (
		placed     *orchestrator.Workload
		at         Placement
		overflowed int
		lastErr    error
		hardErr    error
		overBound  []deferred // skipped for the bound alone, never tried
	)
	// try routes the deploy into one member; false ends the search.
	try := func(m *member) bool {
		w, err, live := m.tryDeploy(ctx, subject, spec, observe)
		if !live {
			return true // detached under us: walk on
		}
		switch {
		case err == nil:
			placed = w
			at = Placement{Cluster: m.name, Node: w.Node, VMID: w.VMID}
			return false
		case errors.Is(err, orchestrator.ErrNoCapacity):
			lastErr = err
			overflowed++
			return true // cluster full: overflow like a bounded-load pass
		default:
			hardErr = err
			return false
		}
	}
	ring.Walk(spec.Tenant, digest, func(name string) bool {
		m := eligible[name]
		if m == nil {
			return true // other region, or joined after the snapshot
		}
		if load := m.cluster.WorkloadCount(); load >= bound {
			overflowed++
			overBound = append(overBound, deferred{m, load})
			return true // past its load bound: pass to the next position
		}
		return try(m)
	})
	if placed == nil && hardErr == nil {
		// Nothing under the bound took it: the deferred, least loaded first.
		sort.SliceStable(overBound, func(i, j int) bool { return overBound[i].load < overBound[j].load })
		for _, d := range overBound {
			if !try(d.m) {
				break
			}
		}
	}

	switch {
	case placed != nil:
		f.emit(audit, now, orchestrator.AuditEvent{
			Kind: "federation-place", Workload: spec.Name, Tenant: spec.Tenant,
			Node: at.Cluster, Allowed: true,
			Detail: fmt.Sprintf("region=%s node=%s overflow=%d", regionLabel(region), at.Node, overflowed),
		})
		return placed, at, nil
	case hardErr != nil:
		return nil, Placement{}, hardErr
	default:
		return nil, Placement{}, &FederationCapacityError{
			Workload: spec.Name, Tenant: spec.Tenant, Region: region,
			Clusters: len(eligible), Err: lastErr,
		}
	}
}

// Move records one workload the evacuation re-placed.
type Move struct {
	Workload string `json:"workload"`
	Tenant   string `json:"tenant"`
	To       string `json:"to"`   // target cluster
	Node     string `json:"node"` // target node
}

// LostWorkload records one workload the evacuation could not re-place
// without violating residency or capacity. Spec and Err carry the failed
// attempt itself (off the wire), so the platform can account for it like
// any other rejected deploy.
type LostWorkload struct {
	Workload string                    `json:"workload"`
	Reason   string                    `json:"reason"`
	Spec     orchestrator.WorkloadSpec `json:"-"`
	Err      error                     `json:"-"`
}

// EvacuationResult reports a cluster evacuation.
type EvacuationResult struct {
	Cluster string         `json:"cluster"`
	Moved   []Move         `json:"moved,omitempty"`
	Lost    []LostWorkload `json:"lost,omitempty"`
	AtMs    int64          `json:"atMs"`
}

// EvacuateCluster handles a failed site: the cluster is removed from
// the federation (the ring drops its key range onto the survivors), its
// in-flight deploys are waited out, and every workload it held is
// re-placed through the same ring with the dead site gone — region pins
// still hard, so a pinned workload with no surviving in-region capacity
// is reported lost rather than leaked across the boundary. Re-placement
// runs the survivors' full deploy pipeline under subject, so admission,
// RBAC, and quota accounting stay exact: no capacity or quota leaks on
// either side. Every move and loss lands on the audit spine.
func (f *Federation) EvacuateCluster(subject, name string) (*EvacuationResult, error) {
	f.mu.Lock()
	m, ok := f.members[name]
	if !ok {
		f.mu.Unlock()
		return nil, &ClusterNotFoundError{Cluster: name}
	}
	delete(f.members, name)
	f.rebuildRingLocked()
	audit, now := f.audit, f.clock
	f.mu.Unlock()

	// Wait out deploys already routed into the dead member; everything
	// that lands before the latch flips is captured in the snapshot
	// below, everything after re-routes through the rebuilt ring.
	m.detach()

	victims := m.cluster.Workloads() // sorted by name: deterministic order
	res := &EvacuationResult{Cluster: name, AtMs: f.nowWith(now)}
	for _, wl := range victims {
		spec := wl.Spec
		// The site is dead: retire the workload there first so the
		// evacuated cluster's own accounting releases its capacity.
		if err := m.cluster.Stop(spec.Name); err != nil && !errors.Is(err, orchestrator.ErrNotFound) {
			res.Lost = append(res.Lost, LostWorkload{Workload: spec.Name,
				Reason: fmt.Sprintf("stop on dead cluster: %v", err), Spec: spec, Err: err})
			continue
		}
		w, pl, err := f.DeployObserved(context.Background(), subject, spec, nil)
		if err != nil {
			res.Lost = append(res.Lost, LostWorkload{Workload: spec.Name, Reason: err.Error(), Spec: spec, Err: err})
			f.emit(audit, now, orchestrator.AuditEvent{
				Kind: "evacuation", Workload: spec.Name, Tenant: spec.Tenant, Node: name,
				Allowed: false, Detail: fmt.Sprintf("lost: %v", err),
			})
			continue
		}
		res.Moved = append(res.Moved, Move{
			Workload: w.Spec.Name, Tenant: w.Spec.Tenant, To: pl.Cluster, Node: pl.Node,
		})
		f.emit(audit, now, orchestrator.AuditEvent{
			Kind: "evacuation", Workload: spec.Name, Tenant: spec.Tenant, Node: pl.Cluster,
			Allowed: true, Detail: fmt.Sprintf("from=%s to=%s node=%s", name, pl.Cluster, pl.Node),
		})
	}
	f.emit(audit, now, orchestrator.AuditEvent{
		Kind: "cluster-evacuate", Node: name, Allowed: true,
		Detail: fmt.Sprintf("%d moved, %d lost", len(res.Moved), len(res.Lost)),
	})
	return res, nil
}

// emit publishes one audit event outside all federation locks.
func (f *Federation) emit(audit orchestrator.AuditSink, now func() int64, ev orchestrator.AuditEvent) {
	if audit == nil {
		return
	}
	ev.AtMs = f.nowWith(now)
	audit(ev)
}

func (f *Federation) nowWith(now func() int64) int64 {
	if now == nil {
		return 0
	}
	return now()
}

func regionLabel(region string) string {
	if region == "" {
		return "any"
	}
	return region
}
