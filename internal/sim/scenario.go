package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"genio/api/client"
	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/orchestrator"
)

// Scenario is a named, fully scripted fault campaign: a platform posture
// plus an ordered list of steps. Scenarios are built by the campaign
// generators in campaigns.go from a seed, so (seed, name) replays the
// identical run — steps, verdicts, timeline and all.
type Scenario struct {
	Name   string
	Seed   int64
	Config core.Config
	Steps  []Step
	// Persist backs the platform with a WAL store in a temp data
	// directory, enabling the KillRestart step: the platform is crashed
	// (flush-only close, no shutdown snapshot) and rebuilt from the
	// directory mid-run. The directory is harness plumbing — never in the
	// report — so the byte-identical replay contract is unchanged.
	// Mutually exclusive with Federation.
	Persist bool
	// Federation, when non-empty, boots the platform in federation mode
	// over the named member clusters (the first adopts the default
	// cluster) — deploys then route region-filter → consistent-hash ring
	// → per-cluster scheduler, and the EvacuateClusterStep injector
	// becomes meaningful. Membership lives on the Scenario, not the
	// Config, so Config stays comparable (postureName relies on that).
	Federation []FedMember
	// Pins are hard tenant→region residency pins applied at boot (and
	// re-applied across KillRestart rebuilds). Requires Federation.
	Pins []TenantPin
}

// FedMember names one federation member cluster of a scenario.
type FedMember struct {
	Name   string
	Region string
}

// TenantPin pins one tenant's workloads to a region for a scenario.
type TenantPin struct {
	Tenant string
	Region string
}

// Step is one scripted action against the world.
type Step struct {
	Name string
	Run  Action
}

// Action mutates the world and reports what happened. Returning an
// Outcome rather than an error keeps faults first-class: a rejected
// deployment or a failed node is an expected observation, not a test
// failure — only invariant violations fail a run.
type Action func(w *World) Outcome

// Outcome is a step's observable result, recorded verbatim in the report.
type Outcome struct {
	Status string // ok | admitted | denied | evicted | error | ...
	Detail string
}

func okf(format string, args ...any) Outcome {
	return Outcome{Status: "ok", Detail: fmt.Sprintf(format, args...)}
}

// World is the mutable state steps act on: the real platform under test
// plus the simulator's own book-keeping, which the invariant checkers
// compare against the platform's reported state after every step.
type World struct {
	Platform *core.Platform
	Clock    *Clock
	Rand     *rand.Rand

	// Live is the scripted expectation of which edge nodes are up.
	Live map[string]bool
	// Cordoned maps a node to the virtual time its current cordon was
	// applied (scripted expectation, mirrored by the cordon/drain
	// injectors). The placement-policy invariant uses it: no workload
	// may carry a placement timestamp at or after its node's cordon.
	Cordoned map[string]int64
	// policies maps workload name -> requested PlacementPolicy ("" =
	// cluster default); the placement-policy invariant checks the
	// cluster's recorded strategy against it.
	policies map[string]string
	// Quotas mirrors explicitly-set tenant quotas for the
	// oversubscription invariant.
	Quotas map[string]orchestrator.Resources
	// verdicts maps image ref -> first observed admission verdict class,
	// for the determinism invariant.
	verdicts map[string]string
	// violations accumulates determinism violations detected inside
	// steps; the admission-determinism invariant drains it.
	violations []string
	// incidentsOwed maps every attempted deploy's name -> admission
	// incidents owed to it: one per failing verdict of each admission
	// rejection, none for any other outcome. The
	// incident-per-rejected-deploy invariant audits the log against it.
	incidentsOwed map[string]int
	// incidentTotal is the last observed incident count (monotonicity).
	incidentTotal int
	// seenIncidents counts incident events delivered to the simulator's
	// own spine subscription — the invariants observe the platform the
	// way an external SIEM would, instead of polling snapshots, and the
	// count must track the platform's incident ledger exactly.
	seenIncidents atomic.Int64
	// offeredEvents tallies, per topic, the publishes the script itself
	// offered through PublishEvent (steps run sequentially, so a plain
	// map suffices). The drop-accounting invariant uses it as a floor:
	// Published on a topic can never fall below what the script alone
	// offered, or an event vanished uncounted.
	offeredEvents map[string]uint64
	// publisher signs images pushed by registry-recovery injectors.
	publisher *container.Publisher

	// cancelMu guards cancelTargets, which names the deployments the
	// sim-cancel-gate admission controller must hold open until their
	// context is cancelled — the seam that makes cancellation racing
	// admission deterministic (the cancel always lands mid-scan).
	cancelMu      sync.Mutex
	cancelTargets map[string]bool
	// cancelled records deployments whose future terminated cancelled;
	// the cancelled-never-placed invariant audits the cluster against it.
	cancelled map[string]bool
	// asyncDone records async deployments the script has seen reach a
	// terminal state; the lifecycle-ledger invariant demands exactly one
	// terminal deploy.lifecycle event for each.
	asyncDone map[string]bool
	// lifeMu guards terminalSeen, the per-workload terminal-event counts
	// observed by the engine's deploy.lifecycle subscription (writes
	// arrive from the spine's delivery goroutine).
	lifeMu       sync.Mutex
	terminalSeen map[string]int

	// wire is the authenticated HTTP client bound to the current
	// platform's loopback api/server; every deploy-shaped step drives the
	// platform through it. stopWire closes it and stops that server.
	wire     *client.HTTP
	stopWire func()

	// persistDir is the WAL data directory of a Scenario.Persist run;
	// rebuild crashes aside the current platform and constructs a fresh
	// one recovering from that directory (set by Engine.Run, used by the
	// KillRestart step, nil on non-persistent runs).
	persistDir string
	rebuild    func() error
	// recoveryDiffs accumulates state divergences the KillRestart step
	// observed across a crash/recovery; the recovery-exact invariant
	// drains it.
	recoveryDiffs []string
	// retiredAdmitted and retiredRejected sum the cluster counters of the
	// incarnations KillRestart crashed; the report adds them to the final
	// incarnation's.
	retiredAdmitted, retiredRejected int

	nodeSeq int
	wlSeq   int
	onuSeq  int
}

// stateFingerprint renders the durable control-plane state — cluster
// export plus the incident ledger — as one deterministic string. The
// KillRestart step compares it across the crash: recovery must reproduce
// it byte for byte.
func (w *World) stateFingerprint() (string, error) {
	st := w.Platform.Cluster.ExportState()
	cbuf, err := json.Marshal(st)
	if err != nil {
		return "", err
	}
	ibuf, err := json.Marshal(w.Platform.Incidents())
	if err != nil {
		return "", err
	}
	return string(cbuf) + "\n" + string(ibuf), nil
}

// markCancelTarget arms the sim-cancel-gate for one workload name.
func (w *World) markCancelTarget(name string) {
	w.cancelMu.Lock()
	w.cancelTargets[name] = true
	w.cancelMu.Unlock()
}

// clearCancelTarget disarms the gate for a name once its storm entry is
// done.
func (w *World) clearCancelTarget(name string) {
	w.cancelMu.Lock()
	delete(w.cancelTargets, name)
	w.cancelMu.Unlock()
}

// isCancelTarget reports whether the gate must hold this workload.
func (w *World) isCancelTarget(name string) bool {
	w.cancelMu.Lock()
	defer w.cancelMu.Unlock()
	return w.cancelTargets[name]
}

// countTerminal tallies one observed terminal lifecycle event (called
// from the spine's delivery goroutine via the engine's subscription).
func (w *World) countTerminal(workload string) {
	w.lifeMu.Lock()
	w.terminalSeen[workload]++
	w.lifeMu.Unlock()
}

// terminalCount reads a workload's observed terminal-event count.
func (w *World) terminalCount(workload string) int {
	w.lifeMu.Lock()
	defer w.lifeMu.Unlock()
	return w.terminalSeen[workload]
}

// terminalOvercounts returns workloads with more than one terminal
// event, sorted.
func (w *World) terminalOvercounts() []string {
	w.lifeMu.Lock()
	defer w.lifeMu.Unlock()
	var out []string
	for name, n := range w.terminalSeen {
		if n > 1 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// NextNodeName returns a fresh deterministic node name.
func (w *World) NextNodeName() string {
	w.nodeSeq++
	return fmt.Sprintf("olt-%03d", w.nodeSeq)
}

// NextWorkloadName returns a fresh deterministic workload name.
func (w *World) NextWorkloadName() string {
	w.wlSeq++
	return fmt.Sprintf("wl-%03d", w.wlSeq)
}

// NextONUSerial returns a fresh deterministic ONU serial.
func (w *World) NextONUSerial() string {
	w.onuSeq++
	return fmt.Sprintf("onu-%04d", w.onuSeq)
}

// LiveNodes returns the scripted live-node set, sorted for deterministic
// random choice.
func (w *World) LiveNodes() []string {
	out := make([]string, 0, len(w.Live))
	for n, up := range w.Live {
		if up {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// schedulableNodes returns the scripted live nodes that are not
// cordoned, sorted for deterministic random choice.
func (w *World) schedulableNodes() []string {
	var out []string
	for _, n := range w.LiveNodes() {
		if _, cordoned := w.Cordoned[n]; !cordoned {
			out = append(out, n)
		}
	}
	return out
}

// Clusters returns every orchestrator cluster the platform drives, in
// deterministic member order — just the default cluster outside
// federation mode. Cluster-state invariants iterate this so the same
// checks cover single-cluster and federated scenarios.
func (w *World) Clusters() []*orchestrator.Cluster {
	members := w.Platform.Clusters()
	out := make([]*orchestrator.Cluster, 0, len(members))
	for _, m := range members {
		if c, err := w.Platform.ClusterByName(m.Name); err == nil {
			out = append(out, c)
		}
	}
	return out
}

// deployCounters sums the admitted and rejected deploys of every member
// cluster of the current platform incarnation.
func (w *World) deployCounters() (admitted, rejected int) {
	for _, c := range w.Clusters() {
		a, r := c.Counters()
		admitted += a
		rejected += r
	}
	return admitted, rejected
}

// clusterOf returns the cluster currently hosting the named node,
// falling back to the default cluster (whose error the caller then
// observes) when no member knows it.
func (w *World) clusterOf(node string) *orchestrator.Cluster {
	for _, c := range w.Clusters() {
		if c.HasNode(node) {
			return c
		}
	}
	return w.Platform.Cluster
}

// DeployedWorkloads returns the names of currently running workloads
// on every member, sorted.
func (w *World) DeployedWorkloads() []string {
	var out []string
	for _, c := range w.Clusters() {
		for _, wl := range c.Workloads() {
			out = append(out, wl.Spec.Name)
		}
	}
	sort.Strings(out)
	return out
}

// observeDeploy records one deploy outcome for the invariants — the
// content-determined verdict class and the admission incidents owed to
// the workload — and returns its report status.
func (w *World) observeDeploy(spec orchestrator.WorkloadSpec, err error) string {
	status, class, contentDetermined := classifyDeploy(err)
	if contentDetermined {
		w.recordVerdict(spec.ImageRef, class)
	}
	owed := 0
	var adm *orchestrator.AdmissionError
	if errors.As(err, &adm) {
		owed = len(adm.Rejections())
	}
	w.incidentsOwed[spec.Name] += owed
	return status
}

// observeAsync is observeDeploy for a deployment future that has reached
// its terminal state.
func (w *World) observeAsync(spec orchestrator.WorkloadSpec, err error) string {
	status := w.observeDeploy(spec, err)
	if status == "cancelled" {
		w.cancelled[spec.Name] = true
	}
	w.asyncDone[spec.Name] = true
	return status
}

// recordVerdict checks an admission verdict class against the first one
// seen for the ref. Only content-determined classes participate —
// spec-dependent rejections (quota, capacity, duplicate names, RBAC) are
// excluded by the caller.
func (w *World) recordVerdict(ref, class string) {
	if prev, ok := w.verdicts[ref]; ok {
		if prev != class {
			w.violations = append(w.violations,
				fmt.Sprintf("image %s verdict flipped: %q then %q", ref, prev, class))
		}
		return
	}
	w.verdicts[ref] = class
}
