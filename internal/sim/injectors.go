package sim

// Composable fault injectors: each constructor returns a Step that drives
// one fault (or one piece of legitimate traffic) into the platform. A
// campaign is just a sequence of these; anything a step observes goes
// into the report verbatim, and the invariant checkers run after every
// step regardless of outcome.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/federation"
	"genio/internal/orchestrator"
	"genio/internal/trace"
)

// JoinNode provisions a fresh edge node (name from the world's
// deterministic sequence) through the full M1–M9 pipeline.
func JoinNode(capacity orchestrator.Resources) Step {
	return Step{Name: "node-join", Run: func(w *World) Outcome {
		name := w.NextNodeName()
		if _, err := w.Platform.AddEdgeNode(name, capacity); err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("join %s: %v", name, err)}
		}
		w.Live[name] = true
		return okf("node %s joined (cpu=%dm mem=%dMB)", name, capacity.CPUMilli, capacity.MemoryMB)
	}}
}

// CrashNode fails a named node: workloads are rescheduled onto survivors
// or evicted, per the orchestrator's failover path.
func CrashNode(name string) Step {
	return Step{Name: "node-crash", Run: func(w *World) Outcome {
		return crash(w, name)
	}}
}

// CrashRandomNode fails a random live node (no-op outcome when none are
// left — a valid state during failover storms).
func CrashRandomNode() Step {
	return Step{Name: "node-crash-random", Run: func(w *World) Outcome {
		live := w.LiveNodes()
		if len(live) == 0 {
			return okf("no live nodes to crash")
		}
		return crash(w, live[w.Rand.Intn(len(live))])
	}}
}

func crash(w *World, name string) Outcome {
	// The node lives in exactly one federation member; fail it there
	// (the default cluster outside federation mode).
	res, err := w.clusterOf(name).FailNode(name)
	if err != nil {
		return Outcome{Status: "error", Detail: fmt.Sprintf("crash %s: %v", name, err)}
	}
	delete(w.Live, name)
	delete(w.Cordoned, name)
	return Outcome{Status: "failed-over", Detail: fmt.Sprintf(
		"node %s down: %d rescheduled, %d evicted", name, len(res.Rescheduled), len(res.Evicted))}
}

// CordonRandomNode cordons a random live, not-yet-cordoned node. The
// clock ticks first so cordon times strictly order against placements.
func CordonRandomNode() Step {
	return Step{Name: "node-cordon", Run: func(w *World) Outcome {
		candidates := w.schedulableNodes()
		if len(candidates) == 0 {
			return okf("no schedulable nodes to cordon")
		}
		name := candidates[w.Rand.Intn(len(candidates))]
		w.Clock.Advance(1)
		if err := w.Platform.Cordon(name); err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("cordon %s: %v", name, err)}
		}
		w.Cordoned[name] = w.Clock.NowMs()
		return okf("node %s cordoned", name)
	}}
}

// UncordonRandomNode returns a random cordoned node to the pool.
func UncordonRandomNode() Step {
	return Step{Name: "node-uncordon", Run: func(w *World) Outcome {
		var cordoned []string
		for _, n := range w.LiveNodes() {
			if _, ok := w.Cordoned[n]; ok {
				cordoned = append(cordoned, n)
			}
		}
		if len(cordoned) == 0 {
			return okf("no cordoned nodes")
		}
		name := cordoned[w.Rand.Intn(len(cordoned))]
		w.Clock.Advance(1)
		if err := w.Platform.Uncordon(name); err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("uncordon %s: %v", name, err)}
		}
		delete(w.Cordoned, name)
		return okf("node %s uncordoned", name)
	}}
}

// DrainRandomNode drains a random live node through the scheduler.
// cancelAfter >= 0 cancels the drain's context after that many
// migrations — deterministic, because migrations are ordered and the
// drain checks its context at every migration boundary. The injector
// mirrors the cluster's rollback contract in the scripted cordon state.
func DrainRandomNode(cancelAfter int) Step {
	return Step{Name: "node-drain", Run: func(w *World) Outcome {
		live := w.LiveNodes()
		if len(live) == 0 {
			return okf("no live nodes to drain")
		}
		name := live[w.Rand.Intn(len(live))]
		return drainNode(w, name, cancelAfter)
	}}
}

// DrainWarmestNode drains the live node holding the most idle warm
// slots (ties broken by name, so the choice is deterministic). This is
// how a campaign guarantees the drain→warm-flush path runs: the drain
// must discard the node's parked slots before its migration accounting,
// and warm-slots-never-leak checks none survive on the cordoned node.
func DrainWarmestNode(cancelAfter int) Step {
	return Step{Name: "node-drain-warmest", Run: func(w *World) Outcome {
		idle := map[string]int{}
		for _, s := range w.Platform.Cluster.WarmIdleSlots() {
			idle[s.Node]++
		}
		live := w.LiveNodes()
		if len(live) == 0 {
			return okf("no live nodes to drain")
		}
		sort.Strings(live)
		name, best := live[0], -1
		for _, n := range live {
			if idle[n] > best {
				name, best = n, idle[n]
			}
		}
		return drainNode(w, name, cancelAfter)
	}}
}

func drainNode(w *World, name string, cancelAfter int) Outcome {
	w.Clock.Advance(1)
	_, wasCordoned := w.Cordoned[name]
	if !wasCordoned {
		// Drain applies the cordon itself; mirror it with the time the
		// drain starts.
		w.Cordoned[name] = w.Clock.NowMs()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cancelAfter == 0 {
		cancel() // cancelled before the first migration boundary
	}
	migrated := 0
	// Drain through the platform surface, not the bare cluster, so
	// campaigns exercise the node.drain spine topic and drain
	// metrics alongside the migration mechanics.
	res, err := w.Platform.DrainObserved(ctx, name, func(ev orchestrator.DrainEvent) {
		if ev.Phase == orchestrator.DrainMigrated {
			w.Clock.Advance(1)
			if migrated++; migrated == cancelAfter {
				cancel()
			}
		}
	})
	switch {
	case err == nil:
		return Outcome{Status: "drained", Detail: fmt.Sprintf(
			"node %s drained: %d migrated", name, len(res.Migrated))}
	case errors.Is(err, orchestrator.ErrCancelled):
		if !wasCordoned {
			delete(w.Cordoned, name) // the drain rolled its cordon back
		}
		return Outcome{Status: "drain-cancelled", Detail: fmt.Sprintf(
			"node %s: %d migrated, %d remaining", name, len(res.Migrated), len(res.Remaining))}
	case errors.Is(err, orchestrator.ErrNoCapacity):
		if !wasCordoned {
			delete(w.Cordoned, name)
		}
		return Outcome{Status: "drain-blocked", Detail: fmt.Sprintf(
			"node %s: %d migrated, %d remaining: %v", name, len(res.Migrated), len(res.Remaining), err)}
	default:
		return Outcome{Status: "error", Detail: fmt.Sprintf("drain %s: %v", name, err)}
	}
}

// PlacementSpreadReport snapshots how the running workloads distribute
// across nodes — the observable difference between binpack and spread
// phases of a campaign, recorded verbatim in the report.
func PlacementSpreadReport() Step {
	return Step{Name: "placement-spread", Run: func(w *World) Outcome {
		counts := map[string]int{}
		total := 0
		for _, c := range w.Clusters() {
			for _, wl := range c.Workloads() {
				counts[wl.Node]++
				total++
			}
		}
		nodes := w.LiveNodes()
		maxShare := 0
		detail := fmt.Sprintf("%d workloads:", total)
		for _, n := range nodes {
			detail += fmt.Sprintf(" %s=%d", n, counts[n])
			if counts[n] > maxShare {
				maxShare = counts[n]
			}
		}
		if total > 0 {
			detail += fmt.Sprintf(" (hottest holds %d%%)", maxShare*100/total)
		}
		return okf("%s", detail)
	}}
}

// Deploy submits one workload (auto-named) through the full admission
// pipeline and records its verdict for the determinism invariant.
func Deploy(tenant, ref string, iso orchestrator.IsolationMode, res orchestrator.Resources) Step {
	return Step{Name: "deploy", Run: func(w *World) Outcome {
		return deployOne(w, orchestrator.WorkloadSpec{
			Name: w.NextWorkloadName(), Tenant: tenant, ImageRef: ref,
			Isolation: iso, Resources: res,
		})
	}}
}

// DeployPolicy is Deploy with an explicit placement policy; the
// placement-policy-respected invariant audits that the cluster honoured
// it.
func DeployPolicy(tenant, ref string, iso orchestrator.IsolationMode, res orchestrator.Resources, policy string) Step {
	label := policy
	if label == "" {
		label = "default"
	}
	return Step{Name: "deploy-" + label, Run: func(w *World) Outcome {
		return deployOne(w, orchestrator.WorkloadSpec{
			Name: w.NextWorkloadName(), Tenant: tenant, ImageRef: ref,
			Isolation: iso, Resources: res, PlacementPolicy: policy,
		})
	}}
}

// DeployRegion is Deploy with an explicit region constraint on the
// spec: the federation router must place it in a matching-region member
// (or reject it outright), and the no-cross-region-leak invariant holds
// the platform to that after every subsequent step.
func DeployRegion(tenant, ref string, iso orchestrator.IsolationMode, res orchestrator.Resources, region string) Step {
	return Step{Name: "deploy-region", Run: func(w *World) Outcome {
		return deployOne(w, orchestrator.WorkloadSpec{
			Name: w.NextWorkloadName(), Tenant: tenant, ImageRef: ref,
			Isolation: iso, Resources: res, Region: region,
		})
	}}
}

// JoinFedNode provisions a fresh edge node into a named federation
// member (JoinNode targets the default cluster). Node names come from
// the same platform-global sequence; requires Scenario.Federation.
func JoinFedNode(cluster string, capacity orchestrator.Resources) Step {
	return Step{Name: "node-join", Run: func(w *World) Outcome {
		name := w.NextNodeName()
		if _, err := w.Platform.AddEdgeNodeIn(cluster, name, capacity); err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("join %s in %s: %v", name, cluster, err)}
		}
		w.Live[name] = true
		return okf("node %s joined cluster %s (cpu=%dm mem=%dMB)",
			name, cluster, capacity.CPUMilli, capacity.MemoryMB)
	}}
}

// EvacuateClusterStep kills a federation member mid-run: the member is
// detached (no placement may land afterwards), every workload it held is
// re-placed through the ring into surviving eligible members — honouring
// pins and region constraints — and its nodes die with it. Losses are
// first-class observations; the region-leak, quota, and accounting
// invariants audit the aftermath. Requires Scenario.Federation (and the
// platform refuses to evacuate its default member).
func EvacuateClusterStep(name string) Step {
	return Step{Name: "cluster-evacuate", Run: func(w *World) Outcome {
		victim, err := w.Platform.ClusterByName(name)
		if err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("evacuate %s: %v", name, err)}
		}
		nodes := victim.Nodes()
		res, err := w.Platform.EvacuateCluster(Subject, name)
		if err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("evacuate %s: %v", name, err)}
		}
		// The member's nodes leave the fleet with it.
		for _, n := range nodes {
			delete(w.Live, n)
			delete(w.Cordoned, n)
		}
		return Outcome{Status: "evacuated", Detail: fmt.Sprintf(
			"cluster %s down: %d nodes gone, %d workloads moved, %d lost",
			name, len(nodes), len(res.Moved), len(res.Lost))}
	}}
}

func deployOne(w *World, spec orchestrator.WorkloadSpec) Outcome {
	w.policies[spec.Name] = spec.PlacementPolicy
	wl, err := w.Platform.DeployContext(context.Background(), Subject, spec)
	status := w.observeDeploy(spec, err)
	if err != nil {
		return Outcome{Status: status, Detail: fmt.Sprintf("%s (%s): %v", spec.Name, spec.ImageRef, err)}
	}
	if wl.Strategy == "warm" {
		// A warm-slot claim skipped scheduling entirely; surface it so
		// campaign reports (and their byte-identical determinism check)
		// pin exactly which deploys took the fast path.
		return Outcome{Status: status, Detail: fmt.Sprintf("%s (%s) placed warm", spec.Name, spec.ImageRef)}
	}
	return Outcome{Status: status, Detail: fmt.Sprintf("%s (%s) placed", spec.Name, spec.ImageRef)}
}

// classifyDeploy maps a Deploy error to a report status and, for verdicts
// that depend only on image content (admission chain, signature
// verification), a class string for the determinism invariant.
// Spec-dependent rejections — quota, capacity, duplicate name, RBAC — are
// legitimate sources of divergence between deploys of the same image, so
// they do not participate.
func classifyDeploy(err error) (status, class string, contentDetermined bool) {
	switch {
	case err == nil:
		return "admitted", "admitted", true
	case errors.Is(err, orchestrator.ErrDenied):
		return "denied", err.Error(), true
	case errors.Is(err, container.ErrUnsigned), errors.Is(err, container.ErrBadSignature),
		errors.Is(err, container.ErrNotFound):
		return "pull-failed", err.Error(), true
	case errors.Is(err, orchestrator.ErrCancelled):
		return "cancelled", "", false
	case errors.Is(err, federation.ErrRegionPinned):
		// A residency rejection depends on the tenant's pin and the
		// requested region, not on image content.
		return "region-pinned", "", false
	case errors.Is(err, orchestrator.ErrQuotaExceeded):
		return "quota-exceeded", "", false
	case errors.Is(err, orchestrator.ErrNoCapacity):
		return "no-capacity", "", false
	case errors.Is(err, orchestrator.ErrDuplicateName):
		return "duplicate", "", false
	case errors.Is(err, orchestrator.ErrUnauthorized):
		return "unauthorized", "", false
	default:
		return "error", "", false
	}
}

// AdmissionFlood fires n auto-named deployments drawn randomly from refs,
// modelling a burst of tenant CI traffic (including hostile images).
func AdmissionFlood(n int, tenant string, res orchestrator.Resources, refs ...string) Step {
	return Step{Name: "admission-flood", Run: func(w *World) Outcome {
		counts := map[string]int{}
		for i := 0; i < n; i++ {
			out := deployOne(w, orchestrator.WorkloadSpec{
				Name: w.NextWorkloadName(), Tenant: tenant,
				ImageRef:  refs[w.Rand.Intn(len(refs))],
				Isolation: orchestrator.IsolationSoft, Resources: res,
			})
			counts[out.Status]++
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		detail := fmt.Sprintf("%d deploys:", n)
		for _, k := range keys {
			detail += fmt.Sprintf(" %s=%d", k, counts[k])
		}
		return okf("%s", detail)
	}}
}

// CancelStorm fires n asynchronous deployments (DeployAsync futures) for
// tenant, cancelling a seeded subset mid-scan: armed deployments are
// held open by the sim-cancel-gate admission controller until their
// context dies, so the cancellation deterministically races — and always
// beats — placement. The rest run to their natural terminal state. The
// cancelled-never-placed and lifecycle-ledger invariants audit the
// aftermath after every step.
func CancelStorm(n int, tenant string, res orchestrator.Resources, refs ...string) Step {
	if len(refs) == 0 {
		refs = []string{CleanImageRef}
	}
	return Step{Name: "cancel-storm", Run: func(w *World) Outcome {
		counts := map[string]int{}
		cancelledNow := 0
		for i := 0; i < n; i++ {
			spec := orchestrator.WorkloadSpec{
				Name: w.NextWorkloadName(), Tenant: tenant,
				ImageRef:  refs[w.Rand.Intn(len(refs))],
				Isolation: orchestrator.IsolationSoft, Resources: res,
			}
			// A seeded coin decides who gets cancelled; the draw happens
			// before the deploy so the schedule is replayable.
			doCancel := w.Rand.Intn(2) == 0
			var status string
			if doCancel {
				status = w.cancelOne(spec)
				cancelledNow++
			} else {
				status = w.asyncOne(spec)
			}
			counts[status]++
			w.Clock.Advance(5)
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		detail := fmt.Sprintf("%d async deploys (%d cancel attempts):", n, cancelledNow)
		for _, k := range keys {
			detail += fmt.Sprintf(" %s=%d", k, counts[k])
		}
		return okf("%s", detail)
	}}
}

// cancelOne runs one armed deployment: wait for the scanning state (the
// gate is now holding it open), cancel, and wait for the terminal event.
func (w *World) cancelOne(spec orchestrator.WorkloadSpec) string {
	w.markCancelTarget(spec.Name)
	defer w.clearCancelTarget(spec.Name)
	scanning := make(chan struct{})
	d, err := w.Platform.DeployAsync(context.Background(), Subject, spec,
		core.WithOnTransition(func(ev core.LifecycleEvent) {
			if ev.State == core.StateScanning {
				close(scanning)
			}
		}))
	if err != nil {
		return "error"
	}
	select {
	case <-scanning:
	case <-d.Done(): // refused before scanning (RBAC, closed platform)
	}
	d.Cancel()
	<-d.Done()
	_, derr := d.Result()
	return w.observeAsync(spec, derr)
}

// asyncOne runs one un-armed deployment through the future surface to
// its natural terminal state.
func (w *World) asyncOne(spec orchestrator.WorkloadSpec) string {
	d, err := w.Platform.DeployAsync(context.Background(), Subject, spec)
	if err != nil {
		return "error"
	}
	_, derr := d.Result()
	return w.observeAsync(spec, derr)
}

// TamperSignature re-pushes an image with a forged signature, modelling a
// registry compromise: subsequent verified pulls of the ref must fail.
func TamperSignature(ref string) Step {
	return Step{Name: "registry-tamper", Run: func(w *World) Outcome {
		img, err := w.Platform.Registry.Pull(ref)
		if err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("tamper %s: %v", ref, err)}
		}
		forged := container.Signature{Publisher: PublisherName, Digest: img.Digest(), Sig: []byte("forged")}
		w.Platform.Registry.Push(img, &forged)
		// The image's content-determined verdict legitimately changes when
		// its registry entry is tampered with; reset the baseline.
		delete(w.verdicts, ref)
		return okf("signature on %s forged", ref)
	}}
}

// RestoreSignature re-signs a (previously tampered) ref with the trusted
// simulation publisher, modelling registry recovery.
func RestoreSignature(ref string) Step {
	return Step{Name: "registry-restore", Run: func(w *World) Outcome {
		img, err := w.Platform.Registry.Pull(ref)
		if err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("restore %s: %v", ref, err)}
		}
		if w.publisher == nil {
			return Outcome{Status: "error", Detail: "no simulation publisher"}
		}
		sig := w.publisher.Sign(img)
		w.Platform.Registry.Push(img, &sig)
		delete(w.verdicts, ref)
		return okf("signature on %s restored", ref)
	}}
}

// ScannerSlowdown registers an extra admission controller that consumes
// delayMs of virtual time on every deployment, modelling a degraded
// scanner backend. The delay is visible in placement and incident
// timestamps; verdicts are unaffected.
func ScannerSlowdown(delayMs int64) Step {
	return Step{Name: "scanner-slowdown", Run: func(w *World) Outcome {
		clk := w.Clock
		w.Platform.Cluster.RegisterAdmissionCtx("sim-slow-scanner", func(context.Context, orchestrator.WorkloadSpec, *container.Image) error {
			clk.Advance(delayMs)
			return nil
		})
		return okf("admission now costs +%dms per deploy", delayMs)
	}}
}

// IncidentStorm replays a bursty mixed benign/malicious event stream over
// the currently deployed workloads through sandbox enforcement and falco
// detection.
func IncidentStorm(bursts int, attackRatio float64, tenant string) Step {
	return Step{Name: "incident-storm", Run: func(w *World) Outcome {
		workloads := w.DeployedWorkloads()
		if len(workloads) == 0 {
			return okf("no workloads to storm")
		}
		events, malicious := trace.RandomStorm(w.Rand, workloads, tenant, bursts, attackRatio)
		executed := w.Platform.ObserveRuntime(events)
		w.Clock.Advance(int64(len(events))) // 1ms of virtual time per event
		return okf("%d bursts (%d malicious), %d/%d events executed",
			bursts, malicious, executed, len(events))
	}}
}

// ONUChurn activates count far-edge ONUs on a random live node and
// rotates the PON keys afterwards, exercising M3/M4 under fleet churn.
func ONUChurn(count int) Step {
	return Step{Name: "onu-churn", Run: func(w *World) Outcome {
		live := w.LiveNodes()
		if len(live) == 0 {
			return okf("no live nodes for onu churn")
		}
		node := live[w.Rand.Intn(len(live))]
		attached := 0
		for i := 0; i < count; i++ {
			if _, err := w.Platform.AttachONU(node, w.NextONUSerial()); err != nil {
				return Outcome{Status: "error", Detail: fmt.Sprintf("attach on %s: %v", node, err)}
			}
			attached++
		}
		n, err := w.Platform.Node(node)
		if err != nil {
			return Outcome{Status: "error", Detail: err.Error()}
		}
		if err := n.OLT.RotateKeys(); err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("rotate on %s: %v", node, err)}
		}
		return okf("%d onus attached to %s, keys rotated", attached, node)
	}}
}

// MetricBurst publishes n synthetic metric events straight onto the
// platform spine across keys — telemetry pressure without security
// semantics, exercising the backpressure policy and the per-topic
// accounting the no-silent-event-drops invariant audits.
func MetricBurst(n int) Step {
	return Step{Name: "metric-burst", Run: func(w *World) Outcome {
		for i := 0; i < n; i++ {
			err := w.Platform.PublishEvent(events.Event{
				Topic: events.TopicMetric, Key: fmt.Sprintf("probe-%d", i%8),
				Payload: events.Metric{Name: "sim.pulse", Value: float64(i), Label: "storm"},
			})
			if err != nil {
				return Outcome{Status: "error", Detail: fmt.Sprintf("publish %d/%d: %v", i, n, err)}
			}
			w.offeredEvents[string(events.TopicMetric)]++
		}
		w.Clock.Advance(int64(n) / 4) // telemetry is cheap but not free
		return okf("%d metric events published", n)
	}}
}

// SetQuota pins a tenant quota (and registers it with the
// oversubscription invariant). Quotas are per-cluster state, so under
// federation the quota is mirrored to every member — the invariant then
// demands it per member.
func SetQuota(tenant string, q orchestrator.Resources) Step {
	return Step{Name: "set-quota", Run: func(w *World) Outcome {
		for _, c := range w.Clusters() {
			c.SetQuota(tenant, q)
		}
		w.Quotas[tenant] = q
		return okf("quota %s = cpu %dm, mem %dMB", tenant, q.CPUMilli, q.MemoryMB)
	}}
}

// StopWorkload stops a random running workload (tenant scale-down).
func StopWorkload() Step {
	return Step{Name: "workload-stop", Run: func(w *World) Outcome {
		names := w.DeployedWorkloads()
		if len(names) == 0 {
			return okf("no workloads to stop")
		}
		name := names[w.Rand.Intn(len(names))]
		if err := w.Platform.Cluster.Stop(name); err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("stop %s: %v", name, err)}
		}
		return okf("workload %s stopped", name)
	}}
}

// StopNewestWorkload stops the most recently deployed workload
// (deterministic: workload names are zero-padded, so the lexicographic
// maximum is the newest). A hard-isolation workload is its VM's sole
// occupant, so stopping it parks the VM as a warm slot — pairing this
// with a follow-up Deploy of the same spec exercises the warm claim
// fast path regardless of the seed.
func StopNewestWorkload() Step {
	return Step{Name: "workload-stop-newest", Run: func(w *World) Outcome {
		names := w.DeployedWorkloads()
		if len(names) == 0 {
			return okf("no workloads to stop")
		}
		sort.Strings(names)
		name := names[len(names)-1]
		if err := w.Platform.Cluster.Stop(name); err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("stop %s: %v", name, err)}
		}
		return okf("workload %s stopped", name)
	}}
}

// AdvanceClock moves virtual time forward (quiet period).
func AdvanceClock(ms int64) Step {
	return Step{Name: "clock-advance", Run: func(w *World) Outcome {
		return okf("t=%dms", w.Clock.Advance(ms))
	}}
}

// KillRestart crashes the platform the way kill -9 would — flush-only
// store close, no shutdown snapshot — and rebuilds it from the scenario's
// data directory. The step fingerprints the durable control-plane state
// (cluster export + incident ledger) on both sides of the crash; any
// divergence is handed to the recovery-exact invariant. Requires
// Scenario.Persist.
func KillRestart() Step {
	return Step{Name: "kill-restart", Run: func(w *World) Outcome {
		if w.rebuild == nil {
			return Outcome{Status: "error", Detail: "kill-restart requires Scenario.Persist"}
		}
		w.Platform.Flush()
		before, err := w.stateFingerprint()
		if err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("fingerprint: %v", err)}
		}
		w.Platform.Crash()
		if err := w.rebuild(); err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("restart: %v", err)}
		}
		after, err := w.stateFingerprint()
		if err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("fingerprint: %v", err)}
		}
		if before != after {
			w.recoveryDiffs = append(w.recoveryDiffs, fmt.Sprintf(
				"state diverged across kill-restart:\n pre-crash: %s\n recovered: %s", before, after))
		}
		// Reconcile the witnesses with the fresh process: recovered
		// incidents entered the log at recovery (never spine-delivered, so
		// the new subscription starts that far behind by construction) and
		// the spine's per-topic ledger restarted at zero, so the script's
		// offered-events floor restarts with it.
		w.seenIncidents.Store(int64(len(w.Platform.Incidents())))
		w.offeredEvents = make(map[string]uint64)
		return Outcome{Status: "recovered", Detail: fmt.Sprintf(
			"%d nodes, %d workloads, %d incidents recovered",
			len(w.Platform.Cluster.Nodes()), len(w.Platform.Cluster.Workloads()),
			len(w.Platform.Incidents()))}
	}}
}
