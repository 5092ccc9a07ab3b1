// Package orchestrator models GENIO's workload-management middleware: a
// Kubernetes/Proxmox-style cluster of nodes running virtual machines, with
// edge applications deployed either in hard isolation (a dedicated VM per
// workload) or soft isolation (containers sharing a per-node tenant VM),
// exactly the two postures the paper describes.
//
// The cluster exposes the two control surfaces the security work attaches
// to: an admission chain, where image-signature checks and the M13/M16
// scanners gate deployments, and cluster settings whose insecure defaults
// the M11 benchmark profiles flag. Tenant resource quotas counter the T8
// resource-abuse vector.
//
// Concurrency model: cluster-wide topology (node membership, the workload
// and quota tables) sits behind a sync.RWMutex so read-side queries never
// contend with each other; writes to per-node placement state (capacity
// accounting and VM maps) are sharded behind one mutex per node so
// placements on different nodes proceed in parallel. The admission chain
// runs on the deploying goroutine, outside both (see admission.go). Lock
// order is always cluster lock before node lock, never the reverse.
//
// Placement decisions are delegated to the scheduler subpackage: one
// fused filter -> score pass over the cluster's candidate table, the
// name-sorted node rows whose scheduler inputs are atomics maintained
// where placement state changes and read without node locks (see
// scheduleExcluding). Node lifecycle — cordon, drain — lives in
// lifecycle.go; failover in failover.go. All three consume the same
// engine, so placement policy is decided in exactly one place.
package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"genio/internal/container"
	"genio/internal/orchestrator/scheduler"
	"genio/internal/orchestrator/warmpool"
	"genio/internal/rbac"
)

// IsolationMode selects how a workload is isolated from co-tenants.
type IsolationMode int

// Isolation modes.
const (
	// IsolationSoft runs the workload as a container inside a shared
	// per-node VM (network namespaces separate tenants).
	IsolationSoft IsolationMode = iota + 1
	// IsolationHard gives the workload a dedicated virtual machine.
	IsolationHard
)

// String names the mode.
func (m IsolationMode) String() string {
	switch m {
	case IsolationSoft:
		return "soft"
	case IsolationHard:
		return "hard"
	default:
		return fmt.Sprintf("isolation(%d)", int(m))
	}
}

// Resources is a CPU/memory demand or capacity. The type lives in the
// scheduler package (the bottom of the placement stack) and is aliased
// here so the whole control plane shares one vocabulary.
type Resources = scheduler.Resources

// Placement strategies, re-exported from the scheduler for callers that
// set WorkloadSpec.PlacementPolicy or Settings.PlacementStrategy.
const (
	PlacementBinpack = string(scheduler.StrategyBinpack)
	PlacementSpread  = string(scheduler.StrategySpread)
)

// WorkloadSpec describes a deployment request.
type WorkloadSpec struct {
	Name      string        `json:"name"`
	Tenant    string        `json:"tenant"`
	ImageRef  string        `json:"imageRef"`
	Isolation IsolationMode `json:"isolation"`
	Resources Resources     `json:"resources"`
	// PlacementPolicy selects the scheduling strategy for this workload:
	// "binpack" (density), "spread" (HA), or "" to take the cluster's
	// Settings.PlacementStrategy default (binpack when that is also
	// unset). Unknown values reject the deploy with a
	// *PlacementPolicyError.
	PlacementPolicy string `json:"placementPolicy,omitempty"`
	// Region constrains federated placement to clusters in the named
	// region. The cluster scheduler itself ignores it — routing happens
	// one layer up in the federation — but it lives on the spec so it
	// survives the WAL, the wire codec, and evacuation re-placement.
	Region string `json:"region,omitempty"`
}

// Workload is a running deployment.
type Workload struct {
	Spec  WorkloadSpec     `json:"spec"`
	Image *container.Image `json:"-"`
	Node  string           `json:"node"`
	VMID  string           `json:"vmId"`
	// PlacedAtMs is the cluster-clock timestamp of the placement. Zero
	// unless a clock is installed with SetClock (simulation, tracing).
	PlacedAtMs int64 `json:"placedAtMs,omitempty"`
	// Strategy is the placement strategy that chose the node; Score is
	// the scheduler's score for the chosen node at placement time. Both
	// are refreshed whenever the workload moves (failover, drain).
	Strategy string  `json:"strategy,omitempty"`
	Score    float64 `json:"score,omitempty"`
	// digest is the image digest the deploy call computed and admitted
	// this workload under — what the VM actually runs. Parking reuses it
	// instead of re-hashing (tamper detection lives at claim time, where
	// the INCOMING image is re-hashed against the slot). Empty on
	// workloads recovered from persisted state; park falls back to
	// hashing then.
	digest string
}

// VM is a virtual machine on a node.
type VM struct {
	ID     string `json:"id"`
	Node   string `json:"node"`
	Tenant string `json:"tenant"`
	// Dedicated is true for hard-isolation VMs (one workload).
	Dedicated bool     `json:"dedicated"`
	Workloads []string `json:"workloads"`
}

// node is internal node state and, at the same time, its row in the
// cluster's candidate table. The cluster lock guards membership in the
// node map and the table; mu serializes every write to the placement
// state (vms, lifecycle flags and the scheduler inputs) so placements
// on different nodes do not serialize.
//
// The scheduler inputs — used, cordoned, sharedVMs, placed and the
// per-tenant counts — are atomics written under mu where the state
// changes (commit, release, park, claim, cordon, import) and read by
// scheduling passes and fleet reads without it. Such a read may see
// one field before a concurrent commit and the next after it; that
// costs at most a rescan, because commitOn re-checks feasibility under
// mu before it places anything.
type node struct {
	name     string
	capacity Resources

	used usage
	// cordoned marks the node unschedulable (Cordon/Drain); running
	// workloads stay until drained or stopped.
	cordoned  atomic.Bool
	sharedVMs atomic.Int32 // non-dedicated VMs (security-posture input)
	placed    atomic.Int32 // workloads on the node
	// tenants counts workloads per interned tenant id (anti-affinity
	// input; see Cluster.tenantIDs). Its length changes only under the
	// cluster write lock (internLocked); every reader and writer of a
	// count holds the cluster lock at least for read.
	tenants []atomic.Int32

	mu  sync.Mutex
	vms map[string]*VM
	// cordonOwner identifies the still-in-flight Drain that applied the
	// cordon (its drain id; 0 = operator-owned or none): a drain rollback
	// may lift only the cordon it owns. Explicit Cordon/Uncordon calls
	// and drain completion reset the owner to 0, so operator intent
	// expressed mid-drain — and a second drain's cordon — survive another
	// drain's rollback. cordonEpoch counts explicit Cordon/Uncordon calls:
	// a completing drain re-asserts its cordon only if the epoch is
	// unchanged since it started (no operator spoke), so a concurrent
	// drain's rollback cannot leave a just-drained node schedulable,
	// while an operator's explicit mid-drain uncordon still wins.
	cordonOwner uint64
	cordonEpoch uint64
}

// usage is a Resources value whose writers are serialized by a lock and
// whose readers need none.
type usage struct{ cpu, mem atomic.Int64 }

func (u *usage) load() Resources {
	return Resources{CPUMilli: int(u.cpu.Load()), MemoryMB: int(u.mem.Load())}
}

func (u *usage) add(r Resources) {
	u.cpu.Add(int64(r.CPUMilli))
	u.mem.Add(int64(r.MemoryMB))
}

func (u *usage) sub(r Resources) {
	u.cpu.Add(-int64(r.CPUMilli))
	u.mem.Add(-int64(r.MemoryMB))
}

// newNode returns an empty node sized for tenants interned tenant ids.
func newNode(name string, capacity Resources, tenants int) *node {
	return &node{name: name, capacity: capacity,
		tenants: make([]atomic.Int32, tenants), vms: make(map[string]*VM)}
}

// candidate reads the node's row for a scheduling decision on behalf of
// tenant id tid — the single place the node -> Candidate mapping lives,
// shared by the scan pass (no lock) and the commit-time re-check (under
// n.mu).
func (n *node) candidate(tid int) scheduler.Candidate {
	return scheduler.Candidate{
		Node:            n.name,
		Capacity:        n.capacity,
		Used:            n.used.load(),
		Cordoned:        n.cordoned.Load(),
		TenantWorkloads: int(n.tenants[tid].Load()),
		SharedVMs:       int(n.sharedVMs.Load()),
	}
}

// countLocked moves tenant id tid's workload count on n by delta (+1 on
// a placement, -1 on a release). Callers hold n.mu.
func (n *node) countLocked(tid int, delta int32) {
	n.tenants[tid].Add(delta)
	n.placed.Add(delta)
}

// addVMLocked registers vm on n. Callers hold n.mu.
func (n *node) addVMLocked(vm *VM) {
	n.vms[vm.ID] = vm
	if !vm.Dedicated {
		n.sharedVMs.Add(1)
	}
}

// dropVMLocked removes vm from n. Callers hold n.mu.
func (n *node) dropVMLocked(vm *VM) {
	delete(n.vms, vm.ID)
	if !vm.Dedicated {
		n.sharedVMs.Add(-1)
	}
}

// releaseLocked undoes one workload's placement on n: capacity is
// returned, the tenant count drops, the VM slot is vacated, and an
// emptied VM is deleted (shared-VM counter maintained). Callers hold
// n.mu.
func (n *node) releaseLocked(workload, vmID string, res Resources, tid int) {
	n.used.sub(res)
	n.countLocked(tid, -1)
	vm, ok := n.vms[vmID]
	if !ok {
		return
	}
	out := vm.Workloads[:0]
	for _, wl := range vm.Workloads {
		if wl != workload {
			out = append(out, wl)
		}
	}
	vm.Workloads = out
	if len(vm.Workloads) == 0 {
		n.dropVMLocked(vm)
	}
}

// Settings are cluster-level configuration flags — the knobs the M11
// hardening guides (NSA, CIS) check. Defaults model the insecure
// out-of-the-box posture of T5.
type Settings struct {
	AnonymousAuth       bool `json:"anonymousAuth"`
	RBACEnabled         bool `json:"rbacEnabled"`
	AuditLoggingEnabled bool `json:"auditLoggingEnabled"`
	EtcdEncryption      bool `json:"etcdEncryption"`
	TLSOnAPIServer      bool `json:"tlsOnApiServer"`
	AllowPrivileged     bool `json:"allowPrivileged"`
	NetworkPoliciesOn   bool `json:"networkPoliciesOn"`
	// PlacementStrategy is the cluster-wide default scheduling strategy
	// ("binpack" | "spread"; "" = binpack) for workloads that do not set
	// their own WorkloadSpec.PlacementPolicy.
	PlacementStrategy string `json:"placementStrategy,omitempty"`
	// WarmPoolEnabled turns on the warm-slot runtime pool (warm.go,
	// internal/orchestrator/warmpool): stopping a workload parks its
	// VM as an idle slot with its capacity still reserved, and a repeat
	// deploy of the same (tenant, image digest) claims the slot in O(1)
	// after claim-time revalidation. Off by default — parked slots hold
	// node capacity, trading headroom for repeat-deploy latency.
	WarmPoolEnabled bool `json:"warmPoolEnabled,omitempty"`
	// WarmPoolHighWatermarkPct / WarmPoolLowWatermarkPct bound the warm
	// pool's pressure evictor: when parking pushes a node's utilization
	// (max of CPU and memory, percent of capacity) above the high
	// watermark, idle slots are evicted LRU-first until it is back under
	// the low one. Zero values take the defaults (85 / 60).
	WarmPoolHighWatermarkPct int `json:"warmPoolHighWatermarkPct,omitempty"`
	WarmPoolLowWatermarkPct  int `json:"warmPoolLowWatermarkPct,omitempty"`
}

// InsecureDefaults returns the configuration middleware ships with before
// hardening (usability over security, per the paper's T5 discussion).
func InsecureDefaults() Settings {
	return Settings{
		AnonymousAuth:   true,
		AllowPrivileged: true,
		TLSOnAPIServer:  false,
	}
}

// HardenedSettings returns the posture after applying the NSA/CIS guides.
func HardenedSettings() Settings {
	return Settings{
		RBACEnabled:         true,
		AuditLoggingEnabled: true,
		EtcdEncryption:      true,
		TLSOnAPIServer:      true,
		NetworkPoliciesOn:   true,
	}
}

// AuditEvent records one control-plane decision — the per-tenant audit
// trail the M11 hardening guides require. The platform forwards these
// onto its event spine (audit topic); standalone clusters may install
// any sink.
type AuditEvent struct {
	// Kind is the decision class: admission-verdict | placement |
	// failover | eviction | node-join | node-fail | workload-stop.
	Kind     string `json:"kind"`
	Workload string `json:"workload,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Node     string `json:"node,omitempty"`
	// Allowed reports the decision outcome (admitted/placed/rescheduled
	// vs rejected/evicted).
	Allowed bool   `json:"allowed"`
	Detail  string `json:"detail,omitempty"`
	// AtMs is the cluster-clock time (zero without a clock).
	AtMs int64 `json:"atMs,omitempty"`
}

// AuditSink receives control-plane audit events. Sinks are called
// outside cluster locks (calling back into the cluster is safe) but on
// the operation's goroutine, so they should return quickly.
type AuditSink func(AuditEvent)

// Errors returned by cluster operations.
var (
	ErrNoCapacity    = errors.New("orchestrator: no node with free capacity")
	ErrDenied        = errors.New("orchestrator: admission denied")
	ErrQuotaExceeded = errors.New("orchestrator: tenant quota exceeded")
	ErrUnauthorized  = errors.New("orchestrator: rbac denied")
	ErrNotFound      = errors.New("orchestrator: workload not found")
	ErrDuplicateName = errors.New("orchestrator: workload name in use")
)

// Cluster is the GENIO orchestration domain. Safe for concurrent use.
type Cluster struct {
	Name     string
	Settings Settings
	Registry *container.Registry
	// RBAC guards control-plane operations when Settings.RBACEnabled.
	RBAC *rbac.Engine
	// VerifyImageSignatures requires signed images from trusted
	// publishers at pull time.
	VerifyImageSignatures bool
	// AdmissionCacheDisabled turns off the per-image-digest verdict cache
	// for controllers registered via RegisterAdmissionCached (used by
	// benchmarks to measure the cold scanner path).
	AdmissionCacheDisabled bool

	mu        sync.RWMutex
	nodes     map[string]*node
	workloads map[string]*Workload
	// candidates is the candidate table: the node rows sorted by name,
	// maintained on membership changes (AddNode inserts, FailNode and
	// ImportState rebuild), with each row's scheduler inputs written
	// where they change. Every scheduling pass and fleet read scans it
	// under mu (read) without taking a node lock — O(nodes) atomic
	// loads, zero allocations. Guarded by mu like the node map.
	candidates []*node
	// tenantIDs interns tenant names to dense ids, the index into every
	// row's tenants counts, so a scan reads a tenant's count by index
	// instead of hashing its name once per node. Ids are assigned under
	// mu (write) — in the deploy's reservation step and in ImportState —
	// before any placement of that tenant, and never reused.
	tenantIDs  map[string]int
	pending    map[string]struct{} // names reserved by in-flight deploys
	quotas     map[string]Resources
	tenantUsed map[string]Resources

	// adm is the admission chain with its verdict cache and in-flight
	// scan table (admission.go) — this cluster's own, or one shared with
	// the cluster it was made a peer of.
	adm *admissionChain

	// clock, when set, timestamps placements and failovers. Injected by
	// simulations (a deterministic virtual clock) and left nil in
	// production, where timestamps stay zero and JSON output is unchanged.
	clock atomic.Pointer[func() int64]

	// audit, when set, receives a record per control-plane decision.
	audit atomic.Pointer[AuditSink]

	// warm is the warm-slot runtime pool (warm.go); always allocated,
	// active only when Settings.WarmPoolEnabled. warmEvents, when set,
	// receives slot lifecycle events (outside locks, like audit).
	warm       *warmpool.Pool
	warmEvents atomic.Pointer[WarmEventSink]

	// mutations, when set, receives a typed record per durable state
	// change, emitted inside the lock that applied it (see state.go).
	mutations atomic.Pointer[MutationSink]

	vmSeq atomic.Int64
	// drainSeq hands out drain ids — the cordon-ownership tokens that
	// keep one drain's rollback from lifting another drain's cordon.
	drainSeq atomic.Uint64
	admitted atomic.Int64
	rejected atomic.Int64
}

// NewCluster creates a cluster backed by the given registry, with a
// fresh admission chain of its own.
func NewCluster(name string, reg *container.Registry, settings Settings) *Cluster {
	c := &Cluster{
		Name:       name,
		Settings:   settings,
		Registry:   reg,
		nodes:      make(map[string]*node),
		workloads:  make(map[string]*Workload),
		tenantIDs:  make(map[string]int),
		pending:    make(map[string]struct{}),
		quotas:     make(map[string]Resources),
		tenantUsed: make(map[string]Resources),
		warm:       warmpool.New(),
	}
	c.adm = &admissionChain{home: c, flight: make(map[string]*admFlightCall)}
	return c
}

// NewPeer creates an empty cluster that admits through c's admission
// chain — the same controllers, verdict cache and in-flight scans, so an
// image is scanned once for both — and carries over c's registry,
// settings, signature and verdict-cache policy, RBAC engine, clock and
// audit and warm-event sinks. Nodes, workloads, quotas and the warm pool
// are its own. The mutation sink is not carried over: the peer's
// placements are not logged, while the verdicts its deploys commit are,
// through c's sink.
func (c *Cluster) NewPeer(name string) *Cluster {
	p := NewCluster(name, c.Registry, c.Settings)
	p.adm = c.adm
	p.RBAC = c.RBAC
	p.VerifyImageSignatures = c.VerifyImageSignatures
	p.AdmissionCacheDisabled = c.AdmissionCacheDisabled
	p.clock.Store(c.clock.Load())
	p.audit.Store(c.audit.Load())
	p.warmEvents.Store(c.warmEvents.Load())
	return p
}

// engine is the placement pipeline every consumer (deploy, failover,
// drain) runs; it is stateless.
var engine scheduler.Engine

// internLocked returns tenant's id, assigning the next one — and
// widening every row's tenant counts to cover it — on first sight.
// Callers hold c.mu (write).
func (c *Cluster) internLocked(tenant string) int {
	if id, ok := c.tenantIDs[tenant]; ok {
		return id
	}
	id := len(c.tenantIDs)
	c.tenantIDs[tenant] = id
	for _, n := range c.nodes {
		if id >= len(n.tenants) {
			grown := make([]atomic.Int32, max(id+1, 2*len(n.tenants)))
			for i := range n.tenants {
				grown[i].Store(n.tenants[i].Load())
			}
			n.tenants = grown
		}
	}
	return id
}

// SetClock installs a millisecond time source used to stamp placements
// (Workload.PlacedAtMs) and failovers (FailoverResult.AtMs). Simulations
// inject a virtual clock here so runs are replayable; without a clock the
// stamps stay zero.
func (c *Cluster) SetClock(now func() int64) {
	c.clock.Store(&now)
}

// nowMs returns the cluster-clock time, or 0 when no clock is installed.
func (c *Cluster) nowMs() int64 {
	if f := c.clock.Load(); f != nil {
		return (*f)()
	}
	return 0
}

// SetAuditSink installs the control-plane audit sink (nil disables).
// Sinks see every admission verdict, placement, failover, eviction, and
// node membership change; they are invoked outside cluster locks.
func (c *Cluster) SetAuditSink(fn AuditSink) {
	if fn == nil {
		c.audit.Store(nil)
		return
	}
	c.audit.Store(&fn)
}

// auditEvent stamps and forwards one audit record; a no-op without a
// sink. Never call while holding c.mu or a node lock: a sink may block
// on telemetry backpressure or call back into read-side queries.
func (c *Cluster) auditEvent(a AuditEvent) {
	if fn := c.audit.Load(); fn != nil {
		if a.AtMs == 0 {
			a.AtMs = c.nowMs()
		}
		(*fn)(a)
	}
}

// AddNode registers a node with the given capacity. A new name is
// inserted into the name-sorted candidates at its place; re-adding a
// name replaces that node, and the slice is rebuilt.
func (c *Cluster) AddNode(name string, capacity Resources) {
	c.mu.Lock()
	_, readd := c.nodes[name]
	n := newNode(name, capacity, len(c.tenantIDs))
	c.nodes[name] = n
	if readd {
		c.rebuildCandidatesLocked()
	} else {
		i := sort.Search(len(c.candidates), func(i int) bool { return c.candidates[i].name >= name })
		c.candidates = slices.Insert(c.candidates, i, n)
	}
	c.mutate(Mutation{Kind: MutNodeJoin, Node: name, Capacity: capacity})
	c.mu.Unlock()
	c.auditEvent(AuditEvent{Kind: "node-join", Node: name, Allowed: true,
		Detail: fmt.Sprintf("capacity cpu=%dm mem=%dMB", capacity.CPUMilli, capacity.MemoryMB)})
}

// rebuildCandidatesLocked rebuilds the candidate table from the node map
// after a membership change. Callers hold c.mu (write).
func (c *Cluster) rebuildCandidatesLocked() {
	old := c.candidates
	c.candidates = c.candidates[:0]
	for _, n := range c.nodes {
		c.candidates = append(c.candidates, n)
	}
	sort.Slice(c.candidates, func(i, j int) bool { return c.candidates[i].name < c.candidates[j].name })
	// When the fleet shrank, nil the reused array's tail so removed node
	// objects (their VM and tenant maps) do not stay pinned past len.
	for i := len(c.candidates); i < len(old); i++ {
		old[i] = nil
	}
}

// SetQuota sets a tenant's resource quota (zero value = unlimited).
func (c *Cluster) SetQuota(tenant string, q Resources) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.quotas[tenant] = q
	c.mutate(Mutation{Kind: MutQuota, Tenant: tenant, Quota: q})
}

// EnsureQuota sets a tenant's quota only if none is set yet, so concurrent
// deploys applying a default quota cannot clobber an explicit one.
func (c *Cluster) EnsureQuota(tenant string, q Resources) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.quotas[tenant]; !ok {
		c.quotas[tenant] = q
		c.mutate(Mutation{Kind: MutQuota, Tenant: tenant, Quota: q})
	}
}

// DeployStage names a phase of the deploy pipeline, reported to the
// observer of DeployObserved as the deployment crosses into it. The
// values double as the lifecycle-state vocabulary the platform publishes
// on its deploy.lifecycle topic.
type DeployStage string

// Pipeline stages, in order.
const (
	// StageScanning covers image pull plus the admission chain.
	StageScanning DeployStage = "scanning"
	// StagePlacing covers name/quota reservation, scheduling, and commit.
	StagePlacing DeployStage = "placing"
)

// DeployContext schedules a workload on behalf of subject. The pipeline
// is: RBAC check (when enabled) -> image pull (verified per policy) ->
// admission chain -> name/quota reservation -> scheduling -> commit.
//
// Only the reservation and commit steps take the cluster write lock; the
// expensive stages (pull, scanners) run without it, and scheduling holds
// the read lock and locks only the node it commits on. Every verdict — and the
// placement, on success — is reported to the audit sink.
//
// Rejections are typed (*AdmissionError, *ImagePullError, *QuotaError,
// *CapacityError, *UnauthorizedError, *DuplicateNameError), all matching
// the ErrRejected umbrella and their historical sentinels.
//
// Cancelling ctx (or passing one past its deadline) aborts the pipeline
// between stages and inside the admission chain without placing the
// workload; the result is a *CancelledError
// and an admission-cancelled audit record. Cancellation that loses the
// race with commit is a no-op: the workload is simply placed.
func (c *Cluster) DeployContext(ctx context.Context, subject string, spec WorkloadSpec) (*Workload, error) {
	return c.DeployObserved(ctx, subject, spec, nil)
}

// DeployObserved is DeployContext with a stage observer: observe (when
// non-nil) is called on the deploying goroutine as the pipeline enters
// each DeployStage. The platform's asynchronous deploy futures use it to
// publish lifecycle transitions; synchronous callers pass nil.
//
// On success the returned *Workload is a commit-time copy: a concurrent
// failover or drain may rewrite the live cluster record the moment the
// commit lock is released, so the caller's copy deliberately does not
// track later moves (query Workload(name) for the current placement),
// and reading it never races them.
func (c *Cluster) DeployObserved(ctx context.Context, subject string, spec WorkloadSpec, observe func(DeployStage)) (*Workload, error) {
	w, err := c.deploy(ctx, subject, spec, observe)
	if err != nil {
		if errors.Is(err, ErrCancelled) {
			c.auditEvent(AuditEvent{Kind: "admission-cancelled", Workload: spec.Name,
				Tenant: spec.Tenant, Detail: err.Error()})
		} else {
			c.auditEvent(AuditEvent{Kind: "admission-verdict", Workload: spec.Name,
				Tenant: spec.Tenant, Detail: err.Error()})
		}
		return nil, err
	}
	c.auditEvent(AuditEvent{Kind: "admission-verdict", Workload: spec.Name,
		Tenant: spec.Tenant, Node: w.Node, Allowed: true})
	c.auditEvent(AuditEvent{Kind: "placement", Workload: spec.Name,
		Tenant: spec.Tenant, Node: w.Node, Allowed: true, Detail: "vm " + w.VMID})
	return w, nil
}

// deploy is DeployObserved's body, audit emission excluded. Cancellation
// is honoured between stages and inside the admission chain; once the
// commit lock is taken with a live context the placement completes.
func (c *Cluster) deploy(ctx context.Context, subject string, spec WorkloadSpec, observe func(DeployStage)) (*Workload, error) {
	if c.Settings.RBACEnabled && c.RBAC != nil {
		d := c.RBAC.Check(subject, rbac.Permission{Verb: "create", Resource: "workloads", Namespace: spec.Tenant})
		if !d.Allowed {
			c.rejected.Add(1)
			return nil, &UnauthorizedError{Subject: subject, Verb: "create", Tenant: spec.Tenant}
		}
	}
	// Validate the demand and the placement policy before any expensive
	// stage runs: a statically invalid spec (or a typo'd cluster default)
	// must not burn an image pull and the whole scanner chain only to be
	// refused at scheduling time — and a negative demand would not be
	// refused there at all.
	if err := spec.CheckDemand(); err != nil {
		c.rejected.Add(1)
		return nil, err
	}
	if _, err := c.resolveStrategy(spec); err != nil {
		c.rejected.Add(1)
		return nil, err
	}
	if err := ctxErr(ctx, spec.Name, string(StageScanning)); err != nil {
		return nil, err
	}
	if observe != nil {
		observe(StageScanning)
	}

	var img *container.Image
	var err error
	if c.VerifyImageSignatures {
		img, err = c.Registry.PullVerified(spec.ImageRef)
	} else {
		img, err = c.Registry.Pull(spec.ImageRef)
	}
	if err != nil {
		c.rejected.Add(1)
		return nil, &ImagePullError{Ref: spec.ImageRef, Err: err}
	}

	// One digest computation per Deploy serves every consumer — the
	// admission verdict-cache keys and the warm-slot claim — instead of
	// each re-hashing the image. Deliberately recomputed per call, never
	// memoized on the Image: a tampered image object must re-hash to a
	// different digest and miss both caches (see deployDigest).
	digest := c.deployDigest(img)
	if err := c.runAdmission(ctx, spec, img, digest); err != nil {
		if !errors.Is(err, ErrCancelled) {
			c.rejected.Add(1)
		}
		return nil, err
	}
	if err := ctxErr(ctx, spec.Name, string(StagePlacing)); err != nil {
		return nil, err
	}
	if observe != nil {
		observe(StagePlacing)
	}

	// Reserve the name and charge the tenant quota up front so concurrent
	// deploys cannot collide on either; both are released on failure.
	c.mu.Lock()
	if _, dup := c.workloads[spec.Name]; dup {
		c.mu.Unlock()
		c.rejected.Add(1)
		return nil, &DuplicateNameError{Workload: spec.Name}
	}
	if _, dup := c.pending[spec.Name]; dup {
		c.mu.Unlock()
		c.rejected.Add(1)
		return nil, &DuplicateNameError{Workload: spec.Name}
	}
	if q, ok := c.quotas[spec.Tenant]; ok && (q.CPUMilli > 0 || q.MemoryMB > 0) {
		used := c.tenantUsed[spec.Tenant]
		if !used.Add(spec.Resources).Fits(q) {
			c.mu.Unlock()
			c.rejected.Add(1)
			return nil, &QuotaError{Tenant: spec.Tenant,
				Requested: spec.Resources, Used: used, Quota: q}
		}
	}
	c.pending[spec.Name] = struct{}{}
	c.tenantUsed[spec.Tenant] = c.tenantUsed[spec.Tenant].Add(spec.Resources)
	c.internLocked(spec.Tenant)

	// Warm fast path: with the name and quota reserved, a repeat deploy
	// whose digest still holds a clean cached verdict claims an idle warm
	// slot in O(1) — no scheduler pass, no VM mint — and commits inside
	// this same critical section. A live context is required: a deploy
	// cancelled this late must roll back, not claim. Misses fall through
	// to the unchanged cold path.
	if c.warmEnabled() && digest != "" && ctx.Err() == nil {
		if w, evs := c.claimWarmLocked(spec, img, digest); w != nil {
			delete(c.pending, spec.Name)
			c.workloads[spec.Name] = w
			c.mutatePlace(w)
			cp := *w
			c.mu.Unlock()
			c.admitted.Add(1)
			c.emitWarmEvents(evs)
			return &cp, nil
		} else {
			c.mu.Unlock()
			c.emitWarmEvents(evs)
		}
	} else {
		c.mu.Unlock()
	}

	w, placedOn, err := c.schedule(spec, img)
	if err != nil && c.warmEnabled() {
		// Capacity pressure: parked warm capacity must never turn a
		// placeable workload away. Reclaim every idle slot and retry the
		// scheduling pass once.
		var capErr *CapacityError
		if errors.As(err, &capErr) {
			c.mu.RLock()
			evs := c.reclaimWarmLocked()
			c.mu.RUnlock()
			if len(evs) > 0 {
				c.emitWarmEvents(evs)
				w, placedOn, err = c.schedule(spec, img)
			}
		}
	}

	c.mu.Lock()
	delete(c.pending, spec.Name)
	if err == nil {
		if n, alive := c.nodes[w.Node]; !alive || n != placedOn {
			// The chosen node failed between placement and commit — or
			// failed AND was re-added under the same name, leaving a fresh
			// object the reservation never touched (identity, not name,
			// decides). Either way the node-side reservation is orphaned
			// with the old object; reschedule on the current fleet rather
			// than spuriously rejecting a deploy it can still host
			// (mirroring the cordon branch below; a genuine capacity
			// shortage surfaces from scheduleAmong itself).
			var moved *Workload
			if moved, err = c.scheduleAmong(spec, img); err == nil {
				w = moved
			}
		} else {
			if n.cordoned.Load() {
				// A cordon (typically a drain) landed between placement and
				// commit. The workload is not yet in the workload table, so
				// a concurrent drain may already have reported the node
				// empty — committing here would strand the workload on a
				// node the operator believes evacuated. Move the placement:
				// release the node-side reservation and reschedule. (A
				// drain CAN still cordon another node while we hold the
				// write lock — it flips the flag under the node lock alone
				// — but commitOn re-checks the flag under that same lock,
				// and a drain that cordons the target after our commit
				// must take c.mu before scanning, so it sees the workload
				// we are about to insert and migrates it normally.)
				c.releasePlacement(w)
				var moved *Workload
				if moved, err = c.scheduleAmong(spec, img); err == nil {
					w = moved
				}
			}
		}
	}
	if err == nil {
		// Last cancellation point: a context done before commit aborts the
		// deployment, releasing both the reservation and the node-side
		// placement schedule just made; after this window closes the
		// workload is placed and cancellation is a no-op.
		if cerr := ctxErr(ctx, spec.Name, string(StagePlacing)); cerr != nil {
			c.releasePlacement(w)
			err = cerr
		}
	}
	if err != nil {
		c.tenantUsed[spec.Tenant] = c.tenantUsed[spec.Tenant].Sub(spec.Resources)
		c.mu.Unlock()
		if !errors.Is(err, ErrCancelled) {
			c.rejected.Add(1)
		}
		return nil, err
	}
	w.digest = digest
	c.workloads[spec.Name] = w
	c.mutatePlace(w)
	// Return a commit-time snapshot, not the live struct: the moment the
	// lock drops, a concurrent failover or drain may rewrite the live
	// workload in place, and the caller's reads must not race that.
	cp := *w
	c.mu.Unlock()
	c.admitted.Add(1)
	return &cp, nil
}

// releasePlacement undoes a successful schedule that will not be
// committed (cancellation in the commit window): node capacity is
// returned, the VM slot vacated, and an emptied shared VM deleted.
// Callers hold c.mu.
func (c *Cluster) releasePlacement(w *Workload) {
	n, ok := c.nodes[w.Node]
	if !ok {
		return // node died; its state object is already orphaned
	}
	n.mu.Lock()
	n.releaseLocked(w.Spec.Name, w.VMID, w.Spec.Resources, c.tenantIDs[w.Spec.Tenant])
	n.mu.Unlock()
}

// schedule places the workload via the scheduler engine, holding the
// cluster read lock and, to commit, the chosen node's lock. It returns
// the node object the placement landed on so the commit window can
// verify identity, not just name: a node failed and re-added under the
// same name between placement and commit is a different object, and
// the reservation died with the old one.
func (c *Cluster) schedule(spec WorkloadSpec, img *container.Image) (*Workload, *node, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.scheduleExcluding(spec, img, "")
}

// scheduleAmong schedules with no exclusion, for callers that hold the
// cluster write lock across placement and commit (failover, drain, the
// commit-window reschedule) and therefore cannot race a membership
// change — the placed node object is necessarily current.
func (c *Cluster) scheduleAmong(spec WorkloadSpec, img *container.Image) (*Workload, error) {
	w, _, err := c.scheduleExcluding(spec, img, "")
	return w, err
}

// scheduleExcluding is the scheduling pass; callers hold c.mu (read or
// write). A non-empty exclude names a node hard-vetoed for this request
// — drain migrations must never target their own source, whatever the
// cordon flag says at that instant (an operator Uncordon mid-drain must
// not make the drain migrate a workload onto the node being drained).
//
// Placement is one fused filter -> score pass over the candidate table:
// each row is read without its node lock and evaluated in place, the
// best is locked, and the placement committed after a feasibility
// re-check against the row under that lock. Concurrent deploys under
// the read lock can race a winner to capacity (or a scan can read a row
// mid-update); losing the re-check rescans (every loss implies another
// deploy committed, so the loop makes progress), falling back to
// first-feasible-commit after a few contested rounds so termination
// never depends on score stability.
func (c *Cluster) scheduleExcluding(spec WorkloadSpec, img *container.Image, exclude string) (*Workload, *node, error) {
	strat, err := c.resolveStrategy(spec)
	if err != nil {
		return nil, nil, err
	}
	req := scheduler.Request{
		Workload:      spec.Name,
		Tenant:        spec.Tenant,
		Demand:        spec.Resources,
		HardIsolation: spec.Isolation == IsolationHard,
		Strategy:      strat,
		Exclude:       exclude,
	}
	tid := c.tenantIDs[spec.Tenant]
	const scoredAttempts = 4
	for attempt := 0; attempt < scoredAttempts; attempt++ {
		scan := engine.NewScan(&req)
		for i, n := range c.candidates {
			cand := n.candidate(tid)
			scan.Offer(i, &cand)
		}
		d, ok := scan.Best()
		if !ok {
			return nil, nil, &CapacityError{Workload: spec.Name, Requested: spec.Resources, Nodes: len(c.candidates)}
		}
		if w := c.commitOn(c.candidates[d.Index], tid, spec, img, &req, string(strat), d.Score); w != nil {
			return w, c.candidates[d.Index], nil
		}
	}
	// Contested fallback: walk the candidates in name order and commit on
	// the first that is feasible at lock time.
	for _, n := range c.candidates {
		cand := n.candidate(tid)
		if engine.Feasible(&req, &cand) != "" {
			continue
		}
		if w := c.commitOn(n, tid, spec, img, &req, string(strat), engine.Score(&req, &cand)); w != nil {
			return w, n, nil
		}
	}
	return nil, nil, &CapacityError{Workload: spec.Name, Requested: spec.Resources, Nodes: len(c.candidates)}
}

// resolveStrategy resolves a spec's effective placement strategy,
// mapping an unknown name onto the typed rejection. The resolution
// error names the policy that actually resolved — a workload that set
// none is rejected by a misconfigured cluster default, and the
// rejection must blame that default, not the empty per-workload field.
func (c *Cluster) resolveStrategy(spec WorkloadSpec) (scheduler.Strategy, error) {
	strat, err := scheduler.ResolveStrategy(spec.PlacementPolicy, c.Settings.PlacementStrategy)
	if err != nil {
		policy := spec.PlacementPolicy
		var unknown *scheduler.UnknownStrategyError
		if errors.As(err, &unknown) {
			policy = unknown.Policy
		}
		return "", &PlacementPolicyError{Workload: spec.Name, Policy: policy}
	}
	return strat, nil
}

// commitOn locks n, re-checks feasibility against its row, and commits
// the placement: VM assignment, capacity and tenant accounting (tid is
// the spec's interned tenant). Returns nil when a concurrent placement
// (or cordon) beat the request there — the caller rescans.
func (c *Cluster) commitOn(n *node, tid int, spec WorkloadSpec, img *container.Image, req *scheduler.Request, strategy string, score float64) *Workload {
	n.mu.Lock()
	live := n.candidate(tid)
	if engine.Feasible(req, &live) != "" {
		n.mu.Unlock()
		return nil
	}
	vm := c.placeVM(n, spec)
	vm.Workloads = append(vm.Workloads, spec.Name)
	n.used.add(spec.Resources)
	n.countLocked(tid, 1)
	n.mu.Unlock()
	return &Workload{Spec: spec, Image: img, Node: n.name, VMID: vm.ID,
		PlacedAtMs: c.nowMs(), Strategy: strategy, Score: score}
}

// placeVM finds or creates the VM for a workload per its isolation mode
// (callers hold n.mu). When a tenant has several shared VMs on the node
// the lowest VM ID wins — map iteration order must never pick the slot,
// or replayed runs diverge.
func (c *Cluster) placeVM(n *node, spec WorkloadSpec) *VM {
	if spec.Isolation != IsolationHard {
		// Soft isolation: reuse the node's shared VM for this tenant.
		var best *VM
		for _, vm := range n.vms {
			if !vm.Dedicated && vm.Tenant == spec.Tenant && (best == nil || vm.ID < best.ID) {
				best = vm
			}
		}
		if best != nil {
			return best
		}
	}
	vm := &VM{
		ID:        fmt.Sprintf("vm-%03d", c.vmSeq.Add(1)),
		Node:      n.name,
		Tenant:    spec.Tenant,
		Dedicated: spec.Isolation == IsolationHard,
	}
	n.addVMLocked(vm)
	return vm
}

// Stop removes a workload, releasing capacity and quota. With the warm
// pool enabled, a workload that was its VM's only occupant parks the VM
// as an idle warm slot instead of tearing it down (see warm.go).
func (c *Cluster) Stop(name string) error {
	w, evs, err := c.stop(name)
	if err != nil {
		return err
	}
	c.auditEvent(AuditEvent{Kind: "workload-stop", Workload: name,
		Tenant: w.Spec.Tenant, Node: w.Node, Allowed: true})
	c.emitWarmEvents(evs)
	return nil
}

// stop is Stop's body, audit and warm-event emission excluded (both
// must happen outside c.mu; the warm events are returned for that).
func (c *Cluster) stop(name string) (*Workload, []WarmEvent, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workloads[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(c.workloads, name)
	c.mutate(Mutation{Kind: MutStop, Name: name})
	c.tenantUsed[w.Spec.Tenant] = c.tenantUsed[w.Spec.Tenant].Sub(w.Spec.Resources)
	var evs []WarmEvent
	if !c.parkOnStopLocked(w, &evs) {
		if n, ok := c.nodes[w.Node]; ok {
			n.mu.Lock()
			n.releaseLocked(name, w.VMID, w.Spec.Resources, c.tenantIDs[w.Spec.Tenant])
			n.mu.Unlock()
		}
	}
	// Whether the slot parked or the VM tore down, the workload's own
	// claimed-slot binding (if this deploy came through the warm path)
	// is retired.
	c.warm.DropClaimed(name)
	return w, evs, nil
}

// Workload returns a running workload by name. The returned struct is
// a snapshot taken under the cluster lock: failover and drain rewrite
// live workload state in place, so handing out interior pointers would
// make every caller's later field read a data race.
func (c *Cluster) Workload(name string) (*Workload, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	w, ok := c.workloads[name]
	if !ok {
		return nil, false
	}
	cp := *w
	return &cp, true
}

// Workloads returns all running workloads sorted by name — snapshots,
// not live pointers (see Workload).
func (c *Cluster) Workloads() []*Workload {
	c.mu.RLock()
	buf := make([]Workload, 0, len(c.workloads))
	for _, w := range c.workloads {
		buf = append(buf, *w)
	}
	c.mu.RUnlock()
	out := make([]*Workload, len(buf))
	for i := range buf {
		out[i] = &buf[i]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// WorkloadCount returns the number of running workloads without
// copying the table — cheap enough for per-mutation cadence decisions.
func (c *Cluster) WorkloadCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.workloads)
}

// VMs returns all VMs sorted by ID — deep snapshots (placements mutate
// the live VM slot lists under node locks).
func (c *Cluster) VMs() []*VM {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*VM
	for _, n := range c.nodes {
		n.mu.Lock()
		for _, vm := range n.vms {
			cp := *vm
			cp.Workloads = append([]string(nil), vm.Workloads...)
			out = append(out, &cp)
		}
		n.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TenantUsage returns a tenant's current resource consumption, including
// reservations held by in-flight deploys.
func (c *Cluster) TenantUsage(tenant string) Resources {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tenantUsed[tenant]
}

// Counters reports admitted/rejected deployment totals.
func (c *Cluster) Counters() (admitted, rejected int) {
	return int(c.admitted.Load()), int(c.rejected.Load())
}

// SharedVMTenants returns, per VM, the set of workload-owning tenants —
// used by the PEACH-style isolation review: a non-dedicated VM hosting
// multiple tenants is an isolation risk.
func (c *Cluster) SharedVMTenants() map[string][]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string][]string)
	for _, n := range c.nodes {
		n.mu.Lock()
		for _, vm := range n.vms {
			seen := map[string]bool{}
			var tenants []string
			for _, wl := range vm.Workloads {
				if w, ok := c.workloads[wl]; ok && !seen[w.Spec.Tenant] {
					seen[w.Spec.Tenant] = true
					tenants = append(tenants, w.Spec.Tenant)
				}
			}
			sort.Strings(tenants)
			out[vm.ID] = tenants
		}
		n.mu.Unlock()
	}
	return out
}
