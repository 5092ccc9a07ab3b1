package sim

// Invariant checkers run after every step, whatever the step did — that
// is the point of the harness: fault handling must keep the platform's
// dependability properties at every intermediate state, not just at the
// end of a campaign.

import (
	"fmt"
	"sort"

	"genio/internal/orchestrator"
)

// Invariant is one property checked against the world after each step.
// Check returns a description per violation found (empty = holds).
type Invariant struct {
	Name  string
	Check func(w *World) []string
}

// DefaultInvariants returns the stock checker set.
func DefaultInvariants() []Invariant {
	return []Invariant{
		NoQuotaOversubscription(),
		NoDeadNodePlacement(),
		NoCapacityOversubscription(),
		IncidentCountsMonotone(),
		AdmissionDeterminism(),
		IncidentPerRejectedDeploy(),
		NoSilentEventDrops(),
		CancelledNeverPlaced(),
		LifecycleLedgerBalanced(),
		PlacementPolicyRespected(),
		NoDrainLeaksCapacity(),
		NoCrossRegionLeak(),
		RecoveryExact(),
	}
}

// clusterTag prefixes a violation message with the owning cluster in
// federated runs. Outside federation mode it is empty, so single-cluster
// reports keep their exact pre-federation wording.
func clusterTag(w *World, c *orchestrator.Cluster) string {
	if w.Platform.Federation == nil {
		return ""
	}
	return "cluster " + c.Name + ": "
}

// NoQuotaOversubscription: a tenant's reported usage never exceeds an
// explicitly-set quota, whatever storm of concurrent or failed deploys
// ran. Under federation the platform mirrors quotas to every member and
// enforces them per cluster, so the check runs per member too.
func NoQuotaOversubscription() Invariant {
	return Invariant{Name: "no-quota-oversubscription", Check: func(w *World) []string {
		var out []string
		tenants := make([]string, 0, len(w.Quotas))
		for t := range w.Quotas {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		for _, t := range tenants {
			q := w.Quotas[t]
			if q.CPUMilli <= 0 && q.MemoryMB <= 0 {
				continue
			}
			for _, c := range w.Clusters() {
				use := c.TenantUsage(t)
				if use.CPUMilli > q.CPUMilli || use.MemoryMB > q.MemoryMB {
					out = append(out, fmt.Sprintf(
						"%stenant %s uses cpu=%dm mem=%dMB over quota cpu=%dm mem=%dMB",
						clusterTag(w, c), t, use.CPUMilli, use.MemoryMB, q.CPUMilli, q.MemoryMB))
				}
			}
		}
		return out
	}}
}

// NoDeadNodePlacement: every running workload sits on a node both the
// cluster and the scenario script agree is alive — the two live sets
// must be equal, in both directions.
func NoDeadNodePlacement() Invariant {
	return Invariant{Name: "no-dead-node-placement", Check: func(w *World) []string {
		var out []string
		// The script's Live set spans the whole federation; the cluster
		// side is the union over members (a node lives in exactly one).
		clusterLive := map[string]bool{}
		for _, c := range w.Clusters() {
			for _, n := range c.Nodes() {
				clusterLive[n] = true
				if !w.Live[n] {
					out = append(out, fmt.Sprintf("%scluster reports node %s alive; script crashed it",
						clusterTag(w, c), n))
				}
			}
		}
		for _, n := range w.LiveNodes() {
			if !clusterLive[n] {
				out = append(out, fmt.Sprintf("cluster lost node %s the script considers alive", n))
			}
		}
		for _, c := range w.Clusters() {
			for _, wl := range c.Workloads() {
				if !clusterLive[wl.Node] {
					out = append(out, fmt.Sprintf("%sworkload %s placed on dead node %s",
						clusterTag(w, c), wl.Spec.Name, wl.Node))
				}
			}
		}
		return out
	}}
}

// NoCapacityOversubscription: no node's accounted usage exceeds its
// capacity after any sequence of placements, failovers, and stops.
func NoCapacityOversubscription() Invariant {
	return Invariant{Name: "no-capacity-oversubscription", Check: func(w *World) []string {
		var out []string
		for _, c := range w.Clusters() {
			for _, u := range c.Utilization() {
				if u.Used.CPUMilli > u.Capacity.CPUMilli || u.Used.MemoryMB > u.Capacity.MemoryMB {
					out = append(out, fmt.Sprintf(
						"%snode %s used cpu=%dm mem=%dMB over capacity cpu=%dm mem=%dMB",
						clusterTag(w, c), u.Node, u.Used.CPUMilli, u.Used.MemoryMB, u.Capacity.CPUMilli, u.Capacity.MemoryMB))
				}
				if u.Used.CPUMilli < 0 || u.Used.MemoryMB < 0 {
					out = append(out, fmt.Sprintf("%snode %s usage went negative: %+v",
						clusterTag(w, c), u.Node, u.Used))
				}
			}
		}
		return out
	}}
}

// IncidentCountsMonotone: the incident log only grows — no fault path may
// lose or rewrite recorded security history — and the simulator's own
// spine subscription (wired by Engine.Run) must have seen exactly the
// incidents the platform's ledger holds: after a Flush, no subscriber
// lags the platform's own view.
func IncidentCountsMonotone() Invariant {
	return Invariant{Name: "incident-counts-monotone", Check: func(w *World) []string {
		var out []string
		w.Platform.Flush()
		total := len(w.Platform.Incidents())
		if total < w.incidentTotal {
			out = append(out, fmt.Sprintf("incident count shrank: %d -> %d", w.incidentTotal, total))
		}
		w.incidentTotal = total
		if seen := int(w.seenIncidents.Load()); seen != total {
			out = append(out, fmt.Sprintf(
				"spine subscription saw %d incidents; platform log holds %d", seen, total))
		}
		return out
	}}
}

// NoSilentEventDrops: the spine's per-topic ledger balances after every
// step — everything published was delivered once flushed and nothing
// was dropped (the spine blocks a publisher, it never drops).
func NoSilentEventDrops() Invariant {
	return Invariant{Name: "no-silent-event-drops", Check: func(w *World) []string {
		var out []string
		w.Platform.Flush()
		stats := w.Platform.Metrics()
		for _, topic := range stats.Topics() {
			ts := stats[topic]
			if ts.Delivered != ts.Published {
				out = append(out, fmt.Sprintf(
					"topic %s: published=%d delivered=%d after flush", topic, ts.Published, ts.Delivered))
			}
			if ts.Dropped > 0 {
				out = append(out, fmt.Sprintf(
					"topic %s: %d events dropped", topic, ts.Dropped))
			}
			// Accounted-loss floor: the ledger must cover at least what
			// the script itself offered (other producers only add), or a
			// publish vanished without being counted.
			if offered := w.offeredEvents[string(topic)]; ts.Published < offered {
				out = append(out, fmt.Sprintf(
					"topic %s: script offered %d events but ledger accounts %d published",
					topic, offered, ts.Published))
			}
		}
		return out
	}}
}

// CancelledNeverPlaced: a deployment whose future terminated cancelled
// must never exist in the cluster — cancellation beats placement or it
// is not cancellation. Checked against both the live workload table and
// (transitively) every later step, since the set only grows.
func CancelledNeverPlaced() Invariant {
	return Invariant{Name: "cancelled-never-placed", Check: func(w *World) []string {
		var out []string
		names := make([]string, 0, len(w.cancelled))
		for n := range w.cancelled {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			for _, c := range w.Clusters() {
				if _, placed := c.Workload(n); placed {
					out = append(out, fmt.Sprintf("%scancelled deployment %s is placed in the cluster",
						clusterTag(w, c), n))
				}
			}
		}
		return out
	}}
}

// LifecycleLedgerBalanced: after a flush, every async deployment the
// script drove to completion has exactly one terminal deploy.lifecycle
// event on the spine — none lost, none duplicated — and no workload
// anywhere has more than one.
func LifecycleLedgerBalanced() Invariant {
	return Invariant{Name: "lifecycle-ledger-balanced", Check: func(w *World) []string {
		var out []string
		w.Platform.Flush()
		names := make([]string, 0, len(w.asyncDone))
		for n := range w.asyncDone {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if got := w.terminalCount(n); got != 1 {
				out = append(out, fmt.Sprintf(
					"deployment %s has %d terminal lifecycle events, want exactly 1", n, got))
			}
		}
		for _, n := range w.terminalOvercounts() {
			if !w.asyncDone[n] {
				out = append(out, fmt.Sprintf(
					"workload %s has multiple terminal lifecycle events", n))
			}
		}
		return out
	}}
}

// PlacementPolicyRespected: the cluster's placement decisions honour
// the scripted policy surface — every running workload carries exactly
// the strategy its spec requested (or the cluster default when it
// requested none), and no workload was placed onto a node at or after
// that node's cordon time (cordon times are scripted, placements are
// clock-stamped, so the comparison is exact under the virtual clock).
func PlacementPolicyRespected() Invariant {
	return Invariant{Name: "placement-policy-respected", Check: func(w *World) []string {
		var out []string
		for _, c := range w.Clusters() {
			defaultStrategy := c.Settings.PlacementStrategy
			if defaultStrategy == "" {
				defaultStrategy = orchestrator.PlacementBinpack
			}
			for _, wl := range c.Workloads() {
				want := w.policies[wl.Spec.Name]
				if want == "" {
					want = defaultStrategy
				}
				if wl.Strategy != want {
					out = append(out, fmt.Sprintf(
						"%sworkload %s placed under strategy %q, policy requested %q",
						clusterTag(w, c), wl.Spec.Name, wl.Strategy, want))
				}
				if since, cordoned := w.Cordoned[wl.Node]; cordoned && wl.PlacedAtMs >= since {
					out = append(out, fmt.Sprintf(
						"%sworkload %s placed on %s at t=%dms, cordoned since t=%dms",
						clusterTag(w, c), wl.Spec.Name, wl.Node, wl.PlacedAtMs, since))
				}
			}
		}
		return out
	}}
}

// NoDrainLeaksCapacity: whatever sequence of drains (completed,
// cancelled mid-migration, blocked on capacity) ran, the cluster's
// accounting must remain derivable from the workload table — per-node
// usage and workload counts equal the sum over placements, per-tenant
// usage equals the sum over tenant specs, and the VM table and workload
// table reference each other exactly (no vacated slot left behind, no
// workload without its VM).
func NoDrainLeaksCapacity() Invariant {
	return Invariant{Name: "no-drain-leaks-capacity", Check: func(w *World) []string {
		var out []string
		for _, cluster := range w.Clusters() {
			out = append(out, drainLeakViolations(w, cluster)...)
		}
		sort.Strings(out)
		return out
	}}
}

// drainLeakViolations recomputes one cluster's accounting from its
// workload table (the body of NoDrainLeaksCapacity, run per federation
// member).
func drainLeakViolations(w *World, cluster *orchestrator.Cluster) []string {
	var out []string
	tag := clusterTag(w, cluster)
	workloads := cluster.Workloads()
	wantUsed := map[string]orchestrator.Resources{}
	wantCount := map[string]int{}
	wantTenant := map[string]orchestrator.Resources{}
	byName := map[string]*orchestrator.Workload{}
	for _, wl := range workloads {
		wantUsed[wl.Node] = wantUsed[wl.Node].Add(wl.Spec.Resources)
		wantCount[wl.Node]++
		wantTenant[wl.Spec.Tenant] = wantTenant[wl.Spec.Tenant].Add(wl.Spec.Resources)
		byName[wl.Spec.Name] = wl
	}
	for _, u := range cluster.Utilization() {
		if u.Used != wantUsed[u.Node] {
			out = append(out, fmt.Sprintf(
				"%snode %s accounts cpu=%dm mem=%dMB; its workloads sum to cpu=%dm mem=%dMB",
				tag, u.Node, u.Used.CPUMilli, u.Used.MemoryMB,
				wantUsed[u.Node].CPUMilli, wantUsed[u.Node].MemoryMB))
		}
		if u.Workloads != wantCount[u.Node] {
			out = append(out, fmt.Sprintf(
				"%snode %s reports %d workloads, table holds %d", tag, u.Node, u.Workloads, wantCount[u.Node]))
		}
	}
	tenantSet := map[string]bool{}
	for t := range wantTenant {
		tenantSet[t] = true
	}
	for t := range w.Quotas {
		tenantSet[t] = true // catches usage stranded after every workload left
	}
	tenants := make([]string, 0, len(tenantSet))
	for t := range tenantSet {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		// A deploy charges the quota in the critical section that places
		// the workload, so usage equals the placed workloads' sum.
		if got := cluster.TenantUsage(t); got != wantTenant[t] {
			out = append(out, fmt.Sprintf(
				"%stenant %s accounts cpu=%dm mem=%dMB; placed workloads sum to cpu=%dm mem=%dMB",
				tag, t, got.CPUMilli, got.MemoryMB, wantTenant[t].CPUMilli, wantTenant[t].MemoryMB))
		}
	}
	seenInVMs := map[string]bool{}
	sharedByNode := map[string]int{}
	for _, vm := range cluster.VMs() {
		if !vm.Dedicated {
			sharedByNode[vm.Node]++
		}
		for _, wl := range vm.Workloads {
			seenInVMs[wl] = true
			owner, ok := byName[wl]
			if !ok {
				out = append(out, fmt.Sprintf("%svm %s holds unknown workload %s", tag, vm.ID, wl))
				continue
			}
			if owner.VMID != vm.ID || owner.Node != vm.Node {
				out = append(out, fmt.Sprintf(
					"%sworkload %s maps to vm %s on %s but sits in vm %s on %s",
					tag, wl, owner.VMID, owner.Node, vm.ID, vm.Node))
			}
		}
	}
	for name := range byName {
		if !seenInVMs[name] {
			out = append(out, fmt.Sprintf("%sworkload %s has no VM slot", tag, name))
		}
	}
	// The hand-maintained shared-VM counter (a scheduler input:
	// SecurityPostureScore) must agree with a recount of the VM
	// table, or posture scoring silently drifts.
	for _, u := range cluster.Utilization() {
		if u.SharedVMs != sharedByNode[u.Node] {
			out = append(out, fmt.Sprintf(
				"%snode %s counts %d shared VMs; VM table holds %d", tag, u.Node, u.SharedVMs, sharedByNode[u.Node]))
		}
	}
	return out
}

// NoCrossRegionLeak: data residency holds at every intermediate state of
// a federated run — no workload of a pinned tenant ever sits in a
// cluster outside its pinned region, and no workload whose spec
// requested a region ever sits outside it. Placement routing, overflow,
// failover, and evacuation all must preserve this; outside federation
// mode the check is vacuous.
func NoCrossRegionLeak() Invariant {
	return Invariant{Name: "no-cross-region-leak", Check: func(w *World) []string {
		fed := w.Platform.Federation
		if fed == nil {
			return nil
		}
		var out []string
		pins := fed.Pins()
		for _, m := range w.Platform.Clusters() {
			c, err := w.Platform.ClusterByName(m.Name)
			if err != nil {
				continue
			}
			for _, wl := range c.Workloads() {
				if want, pinned := pins[wl.Spec.Tenant]; pinned && m.Region != want {
					out = append(out, fmt.Sprintf(
						"cluster %s (region %s): workload %s of tenant %s leaked out of pinned region %s",
						m.Name, m.Region, wl.Spec.Name, wl.Spec.Tenant, want))
				}
				if wl.Spec.Region != "" && wl.Spec.Region != m.Region {
					out = append(out, fmt.Sprintf(
						"cluster %s (region %s): workload %s requested region %s",
						m.Name, m.Region, wl.Spec.Name, wl.Spec.Region))
				}
			}
		}
		return out
	}}
}

// RecoveryExact: a kill-restart recovers the durable control-plane state
// byte for byte — placements, quotas, cordons, verdict cache, and the
// incident ledger after recovery must equal the pre-crash fingerprint the
// KillRestart step captured. The step records divergences; this invariant
// surfaces them (and, like admission-determinism, drains as it reports).
func RecoveryExact() Invariant {
	return Invariant{Name: "recovery-exact", Check: func(w *World) []string {
		out := w.recoveryDiffs
		w.recoveryDiffs = nil
		return out
	}}
}

// AdmissionDeterminism: deploys of the same image ref always produce the
// same content-determined verdict (admission chain and signature checks),
// whatever the parallelism or cache state. The deploy injectors record
// verdicts; this invariant surfaces any flip they observed.
func AdmissionDeterminism() Invariant {
	return Invariant{Name: "admission-determinism", Check: func(w *World) []string {
		out := w.violations
		w.violations = nil
		return out
	}}
}

// IncidentPerRejectedDeploy: the incident log names every
// admission-rejected deploy exactly once per failing verdict — whether it
// ran the scan itself or shared a concurrent deploy's verdict — and never
// a deploy that ended any other way: a cancelled run has no verdict.
func IncidentPerRejectedDeploy() Invariant {
	return Invariant{Name: "incident-per-rejected-deploy", Check: func(w *World) []string {
		got := make(map[string]int)
		for _, inc := range w.Platform.Incidents() {
			if inc.Source == "admission" {
				got[inc.Workload]++
			}
		}
		var out []string
		for n, want := range w.incidentsOwed {
			if got[n] != want {
				out = append(out, fmt.Sprintf(
					"deployment %s has %d admission incidents, want %d", n, got[n], want))
			}
		}
		sort.Strings(out)
		return out
	}}
}
