// Package api is the wire-neutral contract of the networked control
// plane: the request/response DTOs shared by the geniod server and the
// genioctl client, plus a bidirectional mapping from the control-plane
// typed-error taxonomy to stable wire codes and HTTP statuses.
//
// The package deliberately re-declares wire shapes instead of exposing
// the library types directly: the JSON here is the compatibility
// surface, and it must be able to evolve (or stay frozen) independently
// of internal struct layout. Converters translate between the two
// worlds at the edge.
package api

import (
	"fmt"

	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/federation"
	"genio/internal/orchestrator"
	"genio/internal/orchestrator/warmpool"
)

// Resources is a CPU/memory demand or capacity on the wire.
type Resources struct {
	CPUMilli int `json:"cpuMilli"`
	MemoryMB int `json:"memoryMB"`
}

// Isolation modes on the wire.
const (
	IsolationSoft = "soft"
	IsolationHard = "hard"
)

// WorkloadSpec is the wire form of a deployment request's spec.
// Isolation travels as its string name ("soft" | "hard"); an empty
// string defaults to soft at decode time.
type WorkloadSpec struct {
	Name            string    `json:"name"`
	Tenant          string    `json:"tenant"`
	ImageRef        string    `json:"imageRef"`
	Isolation       string    `json:"isolation,omitempty"`
	Resources       Resources `json:"resources"`
	PlacementPolicy string    `json:"placementPolicy,omitempty"`
	// Region constrains federated placement to clusters in the named
	// region (see genioctl deploy -region). Ignored outside federation
	// mode only when empty; a non-empty region on a single-cluster
	// server is refused with CodeFedCapacity.
	Region string `json:"region,omitempty"`
}

// ToOrchestrator converts the wire spec to the library spec. Unknown
// isolation names are an error here (before the request reaches the
// pipeline) so a typo'd client fails with a clear message.
func (s WorkloadSpec) ToOrchestrator() (orchestrator.WorkloadSpec, error) {
	spec := orchestrator.WorkloadSpec{
		Name:     s.Name,
		Tenant:   s.Tenant,
		ImageRef: s.ImageRef,
		Resources: orchestrator.Resources{
			CPUMilli: s.Resources.CPUMilli,
			MemoryMB: s.Resources.MemoryMB,
		},
		PlacementPolicy: s.PlacementPolicy,
		Region:          s.Region,
	}
	switch s.Isolation {
	case "", IsolationSoft:
		spec.Isolation = orchestrator.IsolationSoft
	case IsolationHard:
		spec.Isolation = orchestrator.IsolationHard
	default:
		return orchestrator.WorkloadSpec{}, fmt.Errorf("api: unknown isolation %q (want %s|%s)", s.Isolation, IsolationSoft, IsolationHard)
	}
	if err := spec.CheckDemand(); err != nil {
		return orchestrator.WorkloadSpec{}, err
	}
	return spec, nil
}

// FromWorkloadSpec converts a library spec to its wire form.
func FromWorkloadSpec(spec orchestrator.WorkloadSpec) WorkloadSpec {
	return WorkloadSpec{
		Name:      spec.Name,
		Tenant:    spec.Tenant,
		ImageRef:  spec.ImageRef,
		Isolation: spec.Isolation.String(),
		Resources: Resources{
			CPUMilli: spec.Resources.CPUMilli,
			MemoryMB: spec.Resources.MemoryMB,
		},
		PlacementPolicy: spec.PlacementPolicy,
		Region:          spec.Region,
	}
}

// Workload is the wire form of a placed deployment.
type Workload struct {
	Spec       WorkloadSpec `json:"spec"`
	Node       string       `json:"node"`
	VMID       string       `json:"vmId"`
	PlacedAtMs int64        `json:"placedAtMs,omitempty"`
	Strategy   string       `json:"strategy,omitempty"`
	Score      float64      `json:"score,omitempty"`
}

// FromWorkload converts a library workload to its wire form. Nil maps
// to nil.
func FromWorkload(w *orchestrator.Workload) *Workload {
	if w == nil {
		return nil
	}
	return &Workload{
		Spec:       FromWorkloadSpec(w.Spec),
		Node:       w.Node,
		VMID:       w.VMID,
		PlacedAtMs: w.PlacedAtMs,
		Strategy:   w.Strategy,
		Score:      w.Score,
	}
}

// DeployRequest is the body of POST /v2/deployments (sync and async).
type DeployRequest struct {
	Spec WorkloadSpec `json:"spec"`
}

// DeployBatchRequest is the body of POST /v2/deploy/batch: N specs in
// one signed request. Results are positional — Results[i] answers
// Specs[i] — so one request amortizes auth, framing, and codec cost
// across a whole deploy storm.
type DeployBatchRequest struct {
	Specs []WorkloadSpec `json:"specs"`
}

// DeployBatchResult is one positional element of a batch response:
// exactly one of Workload (placed) or Error (full error-taxonomy wire
// codec, Decode-able) is set.
type DeployBatchResult struct {
	Workload *Workload  `json:"workload,omitempty"`
	Error    *WireError `json:"error,omitempty"`
}

// DeployBatchResponse is the 200 body of POST /v2/deploy/batch. The
// HTTP status reports transport/auth outcome only; per-spec verdicts
// live in the positional results.
type DeployBatchResponse struct {
	Results []DeployBatchResult `json:"results"`
}

// DeploymentRef is the 202 response of an async deploy: the server-side
// future's identity plus its poll/await locations.
type DeploymentRef struct {
	ID    string `json:"id"`
	Poll  string `json:"poll"`
	Await string `json:"await"`
}

// DeploymentStatus is one observation of an async deployment future.
// Workload is set once running; Error is set on rejected/cancelled.
type DeploymentStatus struct {
	ID       string     `json:"id"`
	Workload string     `json:"workload"`
	Tenant   string     `json:"tenant,omitempty"`
	State    string     `json:"state"`
	Placed   *Workload  `json:"placed,omitempty"`
	Error    *WireError `json:"error,omitempty"`
}

// LifecycleEvent is the wire form of one deploy.lifecycle transition —
// the SSE payload of GET /v2/watch.
type LifecycleEvent struct {
	Workload string `json:"workload"`
	Tenant   string `json:"tenant,omitempty"`
	From     string `json:"from,omitempty"`
	State    string `json:"state"`
	Node     string `json:"node,omitempty"`
	Detail   string `json:"detail,omitempty"`
	AtMs     int64  `json:"atMs,omitempty"`
}

// Terminal reports whether the event's state ends a lifecycle.
func (e LifecycleEvent) Terminal() bool {
	return core.DeployState(e.State).Terminal()
}

// FromLifecycleEvent converts a library lifecycle event to its wire
// form.
func FromLifecycleEvent(ev core.LifecycleEvent) LifecycleEvent {
	return LifecycleEvent{
		Workload: ev.Workload,
		Tenant:   ev.Tenant,
		From:     string(ev.From),
		State:    string(ev.State),
		Node:     ev.Node,
		Detail:   ev.Detail,
		AtMs:     ev.AtMs,
	}
}

// WatchSelector filters a lifecycle watch; it travels as query
// parameters (tenant, workload, terminal).
type WatchSelector struct {
	Tenant       string
	Workload     string
	TerminalOnly bool
}

// ToCore converts the wire selector to the library selector.
func (s WatchSelector) ToCore() core.WatchSelector {
	return core.WatchSelector{Tenant: s.Tenant, Workload: s.Workload, TerminalOnly: s.TerminalOnly}
}

// Matches reports whether the wire event passes the selector — the
// wire-side mirror of the library's selector semantics, used where
// events are filtered after conversion (e.g. SSE replay).
func (s WatchSelector) Matches(ev LifecycleEvent) bool {
	if s.Tenant != "" && ev.Tenant != s.Tenant {
		return false
	}
	if s.Workload != "" && ev.Workload != s.Workload {
		return false
	}
	if s.TerminalOnly && !ev.Terminal() {
		return false
	}
	return true
}

// AddNodeRequest is the body of POST /v2/nodes.
type AddNodeRequest struct {
	Name     string    `json:"name"`
	Capacity Resources `json:"capacity"`
	// Cluster names the federation member the node joins ("" = the
	// server's default cluster).
	Cluster string `json:"cluster,omitempty"`
}

// AttachONURequest is the body of POST /v2/nodes/{name}/onus.
type AttachONURequest struct {
	Serial string `json:"serial"`
}

// NodeStatus is one node in the GET /v2/nodes response: utilization
// plus, when the request carried a probe demand, the scheduler's
// explanation for that demand (nil score = infeasible on that node).
type NodeStatus struct {
	Node string `json:"node"`
	// Cluster is the federation member the node schedules in. Empty on
	// single-cluster servers.
	Cluster   string    `json:"cluster,omitempty"`
	Used      Resources `json:"used"`
	Capacity  Resources `json:"capacity"`
	Cordoned  bool      `json:"cordoned,omitempty"`
	Workloads int       `json:"workloads"`
	SharedVMs int       `json:"sharedVMs,omitempty"`
	// WarmIdle/WarmClaimed are the node's warm-slot counts: parked idle
	// VMs (reservations inside Used) and running workloads placed through
	// the warm fast path.
	WarmIdle    int `json:"warmIdle,omitempty"`
	WarmClaimed int `json:"warmClaimed,omitempty"`
	// Binpack/Spread are the per-strategy scores for the probe demand
	// (query params probeCpu/probeMem). Nil when no probe was requested
	// or the node cannot fit the demand.
	Binpack *float64 `json:"binpack,omitempty"`
	Spread  *float64 `json:"spread,omitempty"`
}

// FromUtilization converts a library utilization row to its wire form.
func FromUtilization(u orchestrator.NodeUtilization) NodeStatus {
	return NodeStatus{
		Node:        u.Node,
		Used:        Resources{CPUMilli: u.Used.CPUMilli, MemoryMB: u.Used.MemoryMB},
		Capacity:    Resources{CPUMilli: u.Capacity.CPUMilli, MemoryMB: u.Capacity.MemoryMB},
		Cordoned:    u.Cordoned,
		Workloads:   u.Workloads,
		SharedVMs:   u.SharedVMs,
		WarmIdle:    u.WarmIdle,
		WarmClaimed: u.WarmClaimed,
	}
}

// SlotPool is one (tenant, image digest) warm pool in the GET /v2/slots
// response.
type SlotPool struct {
	Tenant  string `json:"tenant"`
	Digest  string `json:"digest"`
	Idle    int    `json:"idle"`
	Claimed int    `json:"claimed"`
}

// SlotCounters are the warm pool's lifecycle totals on the wire.
type SlotCounters struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Evicted uint64 `json:"evicted"`
	Flushed uint64 `json:"flushed"`
}

// SlotsReport is the GET /v2/slots response: the per-(tenant, digest)
// warm pool table plus the lifecycle counters. On a federated server
// the flat fields aggregate across every member and Clusters carries
// the per-member breakdown; single-cluster servers leave Clusters
// empty.
type SlotsReport struct {
	Pools    []SlotPool     `json:"pools,omitempty"`
	Counters SlotCounters   `json:"counters"`
	Clusters []ClusterSlots `json:"clusters,omitempty"`
}

// ClusterSlots is one federation member's warm-slot report inside a
// federated SlotsReport.
type ClusterSlots struct {
	Cluster  string       `json:"cluster"`
	Pools    []SlotPool   `json:"pools,omitempty"`
	Counters SlotCounters `json:"counters"`
}

// FromWarmPools converts the library warm-pool table and counters to
// the wire report.
func FromWarmPools(rows []warmpool.PoolRow, c warmpool.Counters) SlotsReport {
	rep := SlotsReport{Counters: SlotCounters{
		Hits: c.Hits, Misses: c.Misses, Evicted: c.Evicted, Flushed: c.Flushed,
	}}
	for _, r := range rows {
		rep.Pools = append(rep.Pools, SlotPool{
			Tenant: r.Tenant, Digest: r.Digest, Idle: r.Idle, Claimed: r.Claimed,
		})
	}
	return rep
}

// Migration is one live-migration step inside a drain: which workload
// moved where, and the scheduler score that picked the target.
type Migration struct {
	Workload string  `json:"workload"`
	Target   string  `json:"target"`
	Score    float64 `json:"score"`
}

// DrainResult is the wire form of a completed (or rolled-back) drain.
type DrainResult struct {
	Node      string   `json:"node"`
	Migrated  []string `json:"migrated,omitempty"`
	Remaining []string `json:"remaining,omitempty"`
	Cancelled bool     `json:"cancelled,omitempty"`
	AtMs      int64    `json:"atMs,omitempty"`
	// Migrations carries the per-step detail (target node and placement
	// score) the node.drain spine topic streams in-process; on the wire
	// it rides inside the result so remote clients can render the same
	// migration log without a second stream.
	Migrations []Migration `json:"migrations,omitempty"`
	// Error is set when the drain stopped early (cancelled or blocked):
	// the typed wire error alongside the partial progress above. Decode
	// it to recover the errors.Is/As taxonomy.
	Error *WireError `json:"error,omitempty"`
}

// FromDrainResult converts a library drain result to its wire form.
// Nil maps to nil (a failed drain still carries partial progress).
func FromDrainResult(r *orchestrator.DrainResult) *DrainResult {
	if r == nil {
		return nil
	}
	return &DrainResult{
		Node:      r.Node,
		Migrated:  r.Migrated,
		Remaining: r.Remaining,
		Cancelled: r.Cancelled,
		AtMs:      r.AtMs,
	}
}

// FailoverResult is the wire form of a node-failure reschedule.
type FailoverResult struct {
	Node        string   `json:"node"`
	Rescheduled []string `json:"rescheduled,omitempty"`
	Evicted     []string `json:"evicted,omitempty"`
	AtMs        int64    `json:"atMs,omitempty"`
}

// FromFailoverResult converts a library failover result to its wire
// form. Nil maps to nil.
func FromFailoverResult(r *orchestrator.FailoverResult) *FailoverResult {
	if r == nil {
		return nil
	}
	return &FailoverResult{
		Node:        r.Node,
		Rescheduled: r.Rescheduled,
		Evicted:     r.Evicted,
		AtMs:        r.AtMs,
	}
}

// IncidentCounts is the GET /v2/incidents response: incident tallies by
// source, the platform's deterministic security summary.
type IncidentCounts map[string]int

// TopicStats is one topic's spine counters on the wire.
type TopicStats struct {
	Published uint64 `json:"published"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
}

// Ledger is the GET /v2/ledger response: spine counters per topic.
type Ledger map[string]TopicStats

// FromStats converts spine stats to the wire ledger.
func FromStats(s events.Stats) Ledger {
	out := make(Ledger, len(s))
	for topic, st := range s {
		out[string(topic)] = TopicStats{
			Published: st.Published,
			Delivered: st.Delivered,
			Dropped:   st.Dropped,
		}
	}
	return out
}

// ClusterInfo is one placement domain in the GET /v2/clusters response:
// a federation member, or the synthesized single entry a non-federated
// server reports so fleet tooling renders identically either way.
type ClusterInfo struct {
	Name      string `json:"name"`
	Region    string `json:"region,omitempty"`
	Nodes     int    `json:"nodes"`
	Workloads int    `json:"workloads"`
}

// FromMember converts a federation member snapshot to its wire form.
func FromMember(m federation.Member) ClusterInfo {
	return ClusterInfo{Name: m.Name, Region: m.Region, Nodes: m.Nodes, Workloads: m.Workloads}
}

// EvacuationMove is one workload an evacuation re-placed.
type EvacuationMove struct {
	Workload string `json:"workload"`
	Tenant   string `json:"tenant"`
	To       string `json:"to"`
	Node     string `json:"node"`
}

// EvacuationLoss is one workload an evacuation could not re-place
// without violating residency or capacity.
type EvacuationLoss struct {
	Workload string `json:"workload"`
	Reason   string `json:"reason"`
}

// EvacuationResult is the POST /v2/clusters/{name}/evacuate response.
type EvacuationResult struct {
	Cluster string           `json:"cluster"`
	Moved   []EvacuationMove `json:"moved,omitempty"`
	Lost    []EvacuationLoss `json:"lost,omitempty"`
	AtMs    int64            `json:"atMs,omitempty"`
}

// FromEvacuation converts a library evacuation result to its wire form.
// Nil maps to nil.
func FromEvacuation(r *federation.EvacuationResult) *EvacuationResult {
	if r == nil {
		return nil
	}
	out := &EvacuationResult{Cluster: r.Cluster, AtMs: r.AtMs}
	for _, m := range r.Moved {
		out.Moved = append(out.Moved, EvacuationMove{Workload: m.Workload, Tenant: m.Tenant, To: m.To, Node: m.Node})
	}
	for _, l := range r.Lost {
		out.Lost = append(out.Lost, EvacuationLoss{Workload: l.Workload, Reason: l.Reason})
	}
	return out
}
