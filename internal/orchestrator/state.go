package orchestrator

// Control-plane state capture: the durability seam between the cluster
// and the persistence layer (internal/persist).
//
// Two complementary surfaces live here:
//
//   - Mutations: a typed record per durable state change (node
//     membership, cordon flips, placements, stops, quotas, clean
//     admission verdicts), emitted through the MutationSink the platform
//     installs. Each mutation kind mirrors one of the audit-event kinds
//     the spine already publishes, but unlike the audit sink — which is
//     called outside cluster locks and may observe state that a
//     concurrent operation has already rewritten — the mutation sink is
//     invoked INSIDE the lock that applied the change, so the record
//     sequence is exactly the serialization order of the state machine.
//     Sinks must therefore be O(1) and non-blocking (buffer and return),
//     and must never call back into the Cluster.
//
//   - Export/Import: ClusterState is the compact, replayable snapshot of
//     everything a restarted control plane needs — node membership and
//     cordon flags, the workload table, tenant quotas, and the clean
//     admission-verdict keys. All derived accounting (per-node usage, VM
//     assignments, shared-VM and tenant counters, tenant quota usage,
//     the VM id sequence) is reconstructed from the workload table on
//     import, so a snapshot can never disagree with its own bookkeeping.

import (
	"sort"
	"strconv"
	"strings"

	"genio/internal/container"
)

// Mutation kinds, keyed to the audit-event vocabulary.
const (
	// MutNodeJoin: a node joined (Node, Capacity).
	MutNodeJoin = "node-join"
	// MutNodeRemove: a node left the fleet — FailNode (Node).
	MutNodeRemove = "node-remove"
	// MutNodeCordon: a cordon flag transition, absolute value (Node,
	// Cordoned). Covers Cordon/Uncordon, drain's cordon, and drain
	// rollback/completion.
	MutNodeCordon = "node-cordon"
	// MutPlace: a workload was placed or moved (Workload snapshot).
	// Replay is an upsert by name, so a move needs no paired remove.
	MutPlace = "place"
	// MutStop: a workload left the cluster — Stop or eviction (Name).
	MutStop = "workload-stop"
	// MutQuota: a tenant quota was set, absolute value (Tenant, Quota).
	MutQuota = "quota"
	// MutVerdict: a clean admission verdict was cached (Key).
	MutVerdict = "admission-verdict"
)

// Mutation is one durable control-plane state change. Exactly the
// fields relevant to its Kind are set; replay applies each kind as an
// absolute, last-wins operation (upsert/delete/set), so re-applying a
// suffix of the history onto a snapshot that already contains part of
// it converges to the same state.
type Mutation struct {
	Kind string `json:"kind"`
	// Node names the node for the membership/cordon kinds.
	Node     string    `json:"node,omitempty"`
	Capacity Resources `json:"capacity,omitempty"`
	Cordoned bool      `json:"cordoned,omitempty"`
	// Workload is the commit-time snapshot for MutPlace (Image excluded).
	Workload *Workload `json:"workload,omitempty"`
	// VMSeq is the VM id sequence at MutPlace emission time. Replay takes
	// the maximum across all place records, so the counter survives even
	// when the workload that advanced it was later stopped — otherwise a
	// recovered cluster could re-mint a VM id the pre-crash run had
	// already spent.
	VMSeq int64 `json:"vmSeq,omitempty"`
	// Name is the workload name for MutStop.
	Name string `json:"name,omitempty"`
	// Tenant/Quota describe MutQuota.
	Tenant string    `json:"tenant,omitempty"`
	Quota  Resources `json:"quota,omitempty"`
	// Key is the admission verdict-cache key for MutVerdict.
	Key string `json:"key,omitempty"`
}

// MutationSink receives one record per durable control-plane state
// change. Unlike AuditSink, the sink runs INSIDE cluster/node locks —
// implementations must buffer and return immediately, never block, and
// never call back into the Cluster.
type MutationSink func(Mutation)

// SetMutationSink installs the mutation sink (nil disables). Install it
// before traffic (and after any state import) so the durable log and
// the live state never diverge.
func (c *Cluster) SetMutationSink(fn MutationSink) {
	if fn == nil {
		c.mutations.Store(nil)
		return
	}
	c.mutations.Store(&fn)
}

// mutate forwards one mutation to the sink; a no-op without one.
// Callers hold the lock that applied the change.
func (c *Cluster) mutate(m Mutation) {
	if fn := c.mutations.Load(); fn != nil {
		(*fn)(m)
	}
}

// mutatePlace emits a MutPlace for w — a fresh value snapshot, Image
// excluded, so the sink may retain and marshal it asynchronously while
// the live record keeps changing. Callers hold c.mu.
func (c *Cluster) mutatePlace(w *Workload) {
	if c.mutations.Load() == nil {
		return
	}
	cp := *w
	cp.Image = nil
	c.mutate(Mutation{Kind: MutPlace, Workload: &cp, VMSeq: c.vmSeq.Load()})
}

// NodeState is one node's durable identity: membership, capacity, and
// the cordon flag. Placement accounting is derived from the workload
// table on import.
type NodeState struct {
	Name     string    `json:"name"`
	Capacity Resources `json:"capacity"`
	Cordoned bool      `json:"cordoned,omitempty"`
}

// ClusterState is the cluster's replayable control-plane state: what a
// snapshot stores and what a restarted cluster imports. Slices are
// name-sorted so marshaled snapshots are byte-deterministic.
type ClusterState struct {
	Nodes     []NodeState          `json:"nodes,omitempty"`
	Workloads []Workload           `json:"workloads,omitempty"`
	Quotas    map[string]Resources `json:"quotas,omitempty"`
	// Verdicts are the clean admission-verdict cache keys
	// ("controller\x00imageDigest").
	Verdicts []string `json:"verdicts,omitempty"`
	// VMSeq is the VM id sequence floor; import additionally derives the
	// maximum from the workload VM ids, so recovered placements never
	// collide with freshly minted VMs.
	VMSeq int64 `json:"vmSeq,omitempty"`
}

// ExportState captures the cluster's durable state under the read lock:
// a point-in-time snapshot that can never contain a half-applied
// placement (commits hold the write lock). Mutations that land while
// the snapshot is being persisted are covered by the mutation log —
// replaying them onto this state is convergent.
func (c *Cluster) ExportState() ClusterState {
	c.mu.RLock()
	st := ClusterState{VMSeq: c.vmSeq.Load()}
	for _, n := range c.candidates { // name-sorted by construction
		st.Nodes = append(st.Nodes, NodeState{Name: n.name, Capacity: n.capacity, Cordoned: n.cordoned.Load()})
	}
	st.Workloads = make([]Workload, 0, len(c.workloads))
	for _, w := range c.workloads {
		cp := *w
		cp.Image = nil
		st.Workloads = append(st.Workloads, cp)
	}
	if len(c.quotas) > 0 {
		st.Quotas = make(map[string]Resources, len(c.quotas))
		for t, q := range c.quotas {
			st.Quotas[t] = q
		}
	}
	c.mu.RUnlock()
	sort.Slice(st.Workloads, func(i, j int) bool {
		return st.Workloads[i].Spec.Name < st.Workloads[j].Spec.Name
	})
	st.Verdicts = c.VerdictKeys()
	return st
}

// ImportState replaces the cluster's control-plane state with st,
// rebuilding every piece of derived accounting — per-node usage, VM
// assignments (one VM per distinct VM id, shared-VM and tenant
// counters), tenant quota usage, and the VM id sequence — from the
// workload table. resolve, when non-nil, re-attaches image objects by
// ref (best effort: a nil result leaves Workload.Image unset, which
// every read and reschedule path tolerates). Call before traffic
// starts; a workload whose node is absent from st is dropped rather
// than invented a host.
func (c *Cluster) ImportState(st ClusterState, resolve func(ref string) *container.Image) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Warm slots are deliberately not part of ClusterState: a parked VM
	// does not survive a control-plane restart, so recovery starts cold
	// and the pool repopulates from live stop traffic.
	c.warm.Reset()
	c.nodes = make(map[string]*node, len(st.Nodes))
	for _, ns := range st.Nodes {
		n := newNode(ns.Name, ns.Capacity, len(c.tenantIDs))
		n.cordoned.Store(ns.Cordoned)
		c.nodes[ns.Name] = n
	}
	c.workloads = make(map[string]*Workload, len(st.Workloads))
	c.tenantUsed = make(map[string]Resources)
	maxVM := st.VMSeq
	for i := range st.Workloads {
		w := st.Workloads[i]
		n, ok := c.nodes[w.Node]
		if !ok {
			continue
		}
		if w.Image == nil && resolve != nil {
			w.Image = resolve(w.Spec.ImageRef)
		}
		c.workloads[w.Spec.Name] = &w
		c.tenantUsed[w.Spec.Tenant] = c.tenantUsed[w.Spec.Tenant].Add(w.Spec.Resources)
		n.used.add(w.Spec.Resources)
		n.countLocked(c.internLocked(w.Spec.Tenant), 1)
		vm := n.vms[w.VMID]
		if vm == nil {
			vm = &VM{ID: w.VMID, Node: w.Node, Tenant: w.Spec.Tenant,
				Dedicated: w.Spec.Isolation == IsolationHard}
			n.addVMLocked(vm)
		}
		vm.Workloads = append(vm.Workloads, w.Spec.Name)
		if seq, ok := parseVMSeq(w.VMID); ok && seq > maxVM {
			maxVM = seq
		}
	}
	for _, n := range c.nodes {
		for _, vm := range n.vms {
			sort.Strings(vm.Workloads)
		}
	}
	c.quotas = make(map[string]Resources, len(st.Quotas))
	for t, q := range st.Quotas {
		c.quotas[t] = q
	}
	c.vmSeq.Store(maxVM)
	c.rebuildCandidatesLocked()
	for _, k := range st.Verdicts {
		c.adm.cache.Store(k, struct{}{})
	}
}

// HasNode reports whether a node of that name is a cluster member. The
// platform uses it to keep idempotent re-provisioning (demo fixtures
// re-seeded over a recovered data dir) from resetting a node that
// recovery already rebuilt with its placements.
func (c *Cluster) HasNode(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.nodes[name]
	return ok
}

// VerdictKeys returns the clean admission-verdict cache keys, sorted —
// the keys of the chain's one cache, shared with every peer.
func (c *Cluster) VerdictKeys() []string {
	var keys []string
	c.adm.cache.Range(func(k, _ any) bool {
		if s, ok := k.(string); ok {
			keys = append(keys, s)
		}
		return true
	})
	sort.Strings(keys)
	return keys
}

// parseVMSeq extracts the sequence number from a "vm-NNN" id.
func parseVMSeq(id string) (int64, bool) {
	s, ok := strings.CutPrefix(id, "vm-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
