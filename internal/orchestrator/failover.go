package orchestrator

// Node failure handling: the paper positions orchestration as providing
// "scalable, resilient, and efficient workload management". This file
// models node loss (an OLT going dark) and workload rescheduling onto the
// surviving fleet — with security state preserved: rescheduled workloads
// re-enter through VM placement (isolation guarantees hold on the new
// node), and capacity/quota accounting stays consistent.

import (
	"errors"
	"fmt"
	"sort"
)

// FailoverResult reports the outcome of a node failure.
type FailoverResult struct {
	Node        string   `json:"node"`
	Rescheduled []string `json:"rescheduled"`
	Evicted     []string `json:"evicted"` // no capacity left anywhere
	// AtMs is the cluster-clock time the failure was handled (zero unless
	// a clock is installed with SetClock).
	AtMs int64 `json:"atMs,omitempty"`
}

// FailNode removes a node and reschedules its workloads onto remaining
// nodes through the scheduler (each workload's own placement policy is
// honoured: hard-isolation workloads get fresh dedicated VMs on
// posture-preferred nodes, spread workloads fan back out instead of
// re-hotspotting). Workloads that fit nowhere are evicted: their quota
// is released and they are reported for operator action. The failure
// and every per-workload outcome — including the scheduler's placement
// score for the new node — are reported to the audit sink.
func (c *Cluster) FailNode(name string) (*FailoverResult, error) {
	res, moved, warmEvs, err := c.failNode(name)
	if err != nil {
		return nil, err
	}
	c.auditEvent(AuditEvent{Kind: "node-fail", Node: name, Allowed: true,
		Detail: fmt.Sprintf("%d rescheduled, %d evicted", len(res.Rescheduled), len(res.Evicted))})
	c.emitWarmEvents(warmEvs)
	for _, w := range moved {
		c.auditEvent(AuditEvent{Kind: "failover", Workload: w.Workload,
			Tenant: w.Tenant, Node: w.Node, Allowed: true, AtMs: res.AtMs,
			Detail: fmt.Sprintf("strategy=%s score=%.3f", w.Strategy, w.Score)})
	}
	for _, wl := range res.Evicted {
		c.auditEvent(AuditEvent{Kind: "eviction", Workload: wl, Node: name,
			AtMs: res.AtMs, Detail: "no capacity on surviving nodes"})
	}
	return res, nil
}

// movedWorkload is a value snapshot of one rescheduled workload, taken
// under the cluster lock — the live *Workload may be rewritten by a
// concurrent failover the moment the lock drops.
type movedWorkload struct {
	Workload, Tenant, Node string
	Strategy               string
	Score                  float64
}

// failNode is FailNode's body, audit emission excluded; it additionally
// returns snapshots of the rescheduled workloads (with their new
// placements) so the wrapper can report tenants and target nodes.
func (c *Cluster) failNode(name string) (*FailoverResult, []movedWorkload, []WarmEvent, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[name]; !ok {
		return nil, nil, nil, &NodeNotFoundError{Node: name}
	}
	// Collect the victims deterministically.
	var victims []*Workload
	for _, w := range c.workloads {
		if w.Node == name {
			victims = append(victims, w)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Spec.Name < victims[j].Spec.Name })
	delete(c.nodes, name)
	c.rebuildCandidatesLocked()
	c.mutate(Mutation{Kind: MutNodeRemove, Node: name})

	// The node's warm slots die with it: idle slots are discarded (their
	// reservations lived on the removed node object — nothing to settle)
	// and the victims' claimed-slot bindings are severed before the
	// reschedule loop rewrites their placements.
	var warmEvs []WarmEvent
	if idle, claims := c.warm.FlushNode(name, true); len(idle)+len(claims) > 0 {
		warmEvs = append(warmEvs, WarmEvent{Kind: WarmFlush, Node: name,
			Count: len(idle) + len(claims), Reason: "node-fail"})
	}

	res := &FailoverResult{Node: name, AtMs: c.nowMs()}
	var rescheduled []movedWorkload
	for _, w := range victims {
		// Release old accounting; scheduling re-adds on success. The
		// cluster write lock is already held, so place via scheduleAmong.
		c.tenantUsed[w.Spec.Tenant] = c.tenantUsed[w.Spec.Tenant].Sub(w.Spec.Resources)
		moved, err := c.scheduleAmong(w.Spec, w.Image)
		var perr *PlacementPolicyError
		if errors.As(err, &perr) {
			// The workload's policy no longer resolves — a cluster
			// default misconfigured after placement, not a capacity
			// shortage. Failover's job is keeping workloads alive:
			// degrade to an explicit binpack placement (visible in the
			// audit score detail) instead of mass-evicting a healthy
			// fleet over a config typo.
			degraded := w.Spec
			degraded.PlacementPolicy = PlacementBinpack
			moved, err = c.scheduleAmong(degraded, w.Image)
			if err == nil {
				// The placement degraded; the workload's requested policy
				// did not — once the config is fixed, later moves resolve
				// it normally again.
				moved.Spec.PlacementPolicy = w.Spec.PlacementPolicy
			}
		}
		if err != nil && c.warmEnabled() && isCapacityErr(err) {
			// Idle warm reservations on the survivors are reclaimable:
			// evict them and retry once before evicting a live workload.
			if evs := c.reclaimWarmLocked(); len(evs) > 0 {
				warmEvs = append(warmEvs, evs...)
				moved, err = c.scheduleAmong(w.Spec, w.Image)
			}
		}
		if err != nil {
			delete(c.workloads, w.Spec.Name)
			c.mutate(Mutation{Kind: MutStop, Name: w.Spec.Name})
			res.Evicted = append(res.Evicted, w.Spec.Name)
			continue
		}
		*w = *moved
		c.mutatePlace(w)
		c.tenantUsed[w.Spec.Tenant] = c.tenantUsed[w.Spec.Tenant].Add(w.Spec.Resources)
		res.Rescheduled = append(res.Rescheduled, w.Spec.Name)
		rescheduled = append(rescheduled, movedWorkload{
			Workload: w.Spec.Name, Tenant: w.Spec.Tenant, Node: w.Node,
			Strategy: w.Strategy, Score: w.Score,
		})
	}
	return res, rescheduled, warmEvs, nil
}

// Nodes returns the live node names sorted.
func (c *Cluster) Nodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.nodes))
	for n := range c.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NodeUtilization reports one node's placement state: capacity
// accounting plus the lifecycle and scheduler-relevant facts
// (`genioctl nodes -top` renders these alongside placement scores).
type NodeUtilization struct {
	Node     string    `json:"node"`
	Used     Resources `json:"used"`
	Capacity Resources `json:"capacity"`
	// Cordoned marks the node unschedulable.
	Cordoned bool `json:"cordoned,omitempty"`
	// Workloads counts placements on the node; SharedVMs counts its
	// non-dedicated VMs.
	Workloads int `json:"workloads"`
	SharedVMs int `json:"sharedVMs,omitempty"`
	// WarmIdle counts idle warm slots parked on the node (their
	// reservations are inside Used); WarmClaimed counts running workloads
	// that arrived through the warm-slot fast path.
	WarmIdle    int `json:"warmIdle,omitempty"`
	WarmClaimed int `json:"warmClaimed,omitempty"`
}

// Utilization returns per-node resource usage sorted by node name: one
// read of each candidate-table row, no node lock taken.
func (c *Cluster) Utilization() []NodeUtilization {
	c.mu.RLock()
	defer c.mu.RUnlock()
	warm := c.warm.NodeCounts()
	out := make([]NodeUtilization, len(c.candidates))
	for i, n := range c.candidates { // name-sorted by construction
		out[i] = NodeUtilization{Node: n.name, Used: n.used.load(), Capacity: n.capacity,
			Cordoned: n.cordoned.Load(), Workloads: int(n.placed.Load()),
			SharedVMs: int(n.sharedVMs.Load()),
			WarmIdle:  warm[n.name].Idle, WarmClaimed: warm[n.name].Claimed}
	}
	return out
}
