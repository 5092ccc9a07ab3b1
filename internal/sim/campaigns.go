package sim

// Named campaigns: seeded generators that compose the fault injectors
// into the dependability scenarios the paper's platform must survive.
// The structure of a campaign (which faults, in which order, how hard)
// is itself drawn from the seed, so `-seed N` explores a different but
// perfectly replayable storm.

import (
	"fmt"
	"math/rand"
	"sort"

	"genio/internal/core"
	"genio/internal/orchestrator"
)

// Standard shapes used across campaigns.
var (
	nodeCapacity = orchestrator.Resources{CPUMilli: 4000, MemoryMB: 8192}
	smallDemand  = orchestrator.Resources{CPUMilli: 500, MemoryMB: 512}
	largeDemand  = orchestrator.Resources{CPUMilli: 1500, MemoryMB: 2048}
)

// allImageRefs is the flood mix: clean, vulnerable, malicious, unsigned.
var allImageRefs = []string{
	CleanImageRef, SASTFlaggedImageRef, VulnImageRef, MalwareImageRef, UnsignedImageRef,
}

// CampaignFunc builds a scenario from a seed.
type CampaignFunc func(seed int64) Scenario

var campaigns = map[string]CampaignFunc{
	"churn":             ChurnCampaign,
	"admission-flood":   AdmissionFloodCampaign,
	"failover-storm":    FailoverStormCampaign,
	"incident-storm":    IncidentStormCampaign,
	"event-storm":       EventStormCampaign,
	"cancel-storm":      CancelStormCampaign,
	"hotspot":           HotspotCampaign,
	"drain-storm":       DrainStormCampaign,
	"deploy-storm":      DeployStormCampaign,
	"wire-deploy-storm": WireDeployStormCampaign,
	"kill-restart":      KillRestartCampaign,
	"region-outage":     RegionOutageCampaign,
}

// CampaignNames lists the registered campaigns, sorted.
func CampaignNames() []string {
	out := make([]string, 0, len(campaigns))
	for n := range campaigns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewCampaign builds the named campaign for a seed.
func NewCampaign(name string, seed int64) (Scenario, error) {
	f, ok := campaigns[name]
	if !ok {
		return Scenario{}, fmt.Errorf("sim: unknown campaign %q (have %v)", name, CampaignNames())
	}
	return f(seed), nil
}

// ChurnCampaign models fleet churn: nodes joining and crashing while
// tenant deploys, far-edge onboarding, and scale-downs keep arriving.
func ChurnCampaign(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	steps := []Step{
		SetQuota("acme", orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384}),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
		Deploy("acme", SASTFlaggedImageRef, orchestrator.IsolationHard, smallDemand),
		ONUChurn(3),
	}
	for i := 0; i < 14; i++ {
		switch r.Intn(6) {
		case 0:
			steps = append(steps, JoinNode(nodeCapacity))
		case 1:
			steps = append(steps, CrashRandomNode())
		case 2:
			steps = append(steps, Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand))
		case 3:
			steps = append(steps, ONUChurn(1+r.Intn(3)))
		case 4:
			steps = append(steps, StopWorkload())
		default:
			steps = append(steps, AdvanceClock(250))
		}
	}
	steps = append(steps, IncidentStorm(6, 0.3, "acme"))
	return Scenario{Name: "churn", Seed: seed, Config: core.SecureConfig(), Steps: steps}
}

// AdmissionFloodCampaign models bursty CI traffic pushing clean,
// vulnerable, malicious, and unsigned images through admission — with a
// mid-flood scanner slowdown and a registry signature compromise.
func AdmissionFloodCampaign(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	steps := []Step{
		JoinNode(orchestrator.Resources{CPUMilli: 16000, MemoryMB: 32768}),
		JoinNode(orchestrator.Resources{CPUMilli: 16000, MemoryMB: 32768}),
		SetQuota("acme", orchestrator.Resources{CPUMilli: 12000, MemoryMB: 24576}),
		SetQuota("burst", orchestrator.Resources{CPUMilli: 2000, MemoryMB: 2048}),
		AdmissionFlood(15+r.Intn(10), "acme", smallDemand, allImageRefs...),
		ScannerSlowdown(50),
		AdmissionFlood(10+r.Intn(10), "burst", smallDemand, allImageRefs...),
		TamperSignature(CleanImageRef),
		Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
		RestoreSignature(CleanImageRef),
		Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
		AdmissionFlood(10, "acme", smallDemand, CleanImageRef, SASTFlaggedImageRef),
	}
	return Scenario{Name: "admission-flood", Seed: seed, Config: core.SecureConfig(), Steps: steps}
}

// FailoverStormCampaign models a failover cascade: a well-packed fleet
// loses most of its nodes one after another (rescheduling until capacity
// runs out and evictions begin), then recovers and re-admits.
func FailoverStormCampaign(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	steps := []Step{
		SetQuota("acme", orchestrator.Resources{CPUMilli: 20000, MemoryMB: 40960}),
	}
	for i := 0; i < 5; i++ {
		steps = append(steps, JoinNode(nodeCapacity))
	}
	for i := 0; i < 8; i++ {
		iso := orchestrator.IsolationSoft
		if r.Intn(3) == 0 {
			iso = orchestrator.IsolationHard
		}
		steps = append(steps, Deploy("acme", CleanImageRef, iso, largeDemand))
	}
	// The storm: crash nodes back to back, with traffic still arriving —
	// admissible images contend for the shrinking capacity, flagged ones
	// keep the gates busy.
	for i := 0; i < 4; i++ {
		ref := CleanImageRef
		if i%2 == 1 {
			ref = SASTFlaggedImageRef
		}
		steps = append(steps,
			CrashRandomNode(),
			Deploy("acme", ref, orchestrator.IsolationSoft, smallDemand),
		)
	}
	steps = append(steps,
		IncidentStorm(4, 0.5, "acme"),
		// Recovery: fresh nodes join and evicted demand is re-admitted.
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		Deploy("acme", CleanImageRef, orchestrator.IsolationHard, largeDemand),
		Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
		ONUChurn(2),
	)
	return Scenario{Name: "failover-storm", Seed: seed, Config: core.SecureConfig(), Steps: steps}
}

// EventStormCampaign hammers the event spine itself: every topic at
// once — incident storms (incident + falco.alert), deploy/stop churn
// (audit + metric), and raw metric bursts. The no-silent-event-drops
// invariant must find the ledger balanced and the drop counters at zero
// after every step.
func EventStormCampaign(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	steps := []Step{
		SetQuota("acme", orchestrator.Resources{CPUMilli: 16000, MemoryMB: 32768}),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
		Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
		Deploy("acme", SASTFlaggedImageRef, orchestrator.IsolationHard, smallDemand),
	}
	for wave := 0; wave < 6; wave++ {
		steps = append(steps,
			IncidentStorm(3+r.Intn(4), 0.2+0.1*float64(wave), "acme"),
			MetricBurst(40+r.Intn(60)),
		)
		switch r.Intn(3) {
		case 0:
			steps = append(steps, Deploy("acme", allImageRefs[r.Intn(len(allImageRefs))],
				orchestrator.IsolationSoft, smallDemand))
		case 1:
			steps = append(steps, StopWorkload())
		default:
			steps = append(steps, CrashRandomNode(), JoinNode(nodeCapacity))
		}
		steps = append(steps, AdvanceClock(100))
	}
	steps = append(steps, MetricBurst(200))
	return Scenario{Name: "event-storm", Seed: seed, Config: core.SecureConfig(), Steps: steps}
}

// CancelStormCampaign models API-v2 cancellation pressure: waves of
// asynchronous deployments with seeded cancellations landing mid-scan
// (via the deterministic sim-cancel-gate), interleaved with node churn
// and ordinary traffic. The cancelled-never-placed and lifecycle-ledger
// invariants must hold after every step: no cancelled future is ever in
// the cluster, and every completed future has exactly one terminal
// deploy.lifecycle event.
func CancelStormCampaign(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	steps := []Step{
		SetQuota("acme", orchestrator.Resources{CPUMilli: 16000, MemoryMB: 32768}),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
	}
	for wave := 0; wave < 5; wave++ {
		steps = append(steps, CancelStorm(4+r.Intn(4), "acme", smallDemand,
			CleanImageRef, SASTFlaggedImageRef, MalwareImageRef))
		switch r.Intn(3) {
		case 0:
			steps = append(steps, CrashRandomNode(), JoinNode(nodeCapacity))
		case 1:
			steps = append(steps, Deploy("acme", allImageRefs[r.Intn(len(allImageRefs))],
				orchestrator.IsolationSoft, smallDemand))
		default:
			steps = append(steps, AdvanceClock(200))
		}
	}
	// A final dense wave plus a quiet period for the ledger to settle.
	steps = append(steps,
		CancelStorm(6, "acme", smallDemand, CleanImageRef, UnsignedImageRef),
		AdvanceClock(250),
	)
	return Scenario{Name: "cancel-storm", Seed: seed, Config: core.SecureConfig(), Steps: steps}
}

// HotspotCampaign is the placement-policy showcase on a 4-node fleet:
// a binpack wave (the density default) concentrates onto one node, a
// spread wave fans across the fleet — the two PlacementSpreadReport
// snapshots in the report make the difference measurable — then mixed
// policy traffic under churn keeps the placement-policy-respected
// invariant honest.
func HotspotCampaign(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	steps := []Step{
		SetQuota("acme", orchestrator.Resources{CPUMilli: 24000, MemoryMB: 49152}),
	}
	for i := 0; i < 4; i++ {
		steps = append(steps, JoinNode(nodeCapacity))
	}
	// Phase 1: binpack (cluster default) — hotspot by design.
	for i := 0; i < 6; i++ {
		steps = append(steps, Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand))
	}
	steps = append(steps, PlacementSpreadReport(), AdvanceClock(100))
	// Phase 2: spread — same fleet, opposite distribution.
	for i := 0; i < 6; i++ {
		steps = append(steps, DeployPolicy("acme", CleanImageRef, orchestrator.IsolationSoft,
			smallDemand, orchestrator.PlacementSpread))
	}
	steps = append(steps, PlacementSpreadReport())
	// Phase 3: mixed policy traffic under churn and cordon pressure.
	for i := 0; i < 10; i++ {
		switch r.Intn(5) {
		case 0:
			steps = append(steps, DeployPolicy("acme", CleanImageRef, orchestrator.IsolationHard,
				smallDemand, orchestrator.PlacementSpread))
		case 1:
			steps = append(steps, Deploy("acme", allImageRefs[r.Intn(len(allImageRefs))],
				orchestrator.IsolationSoft, smallDemand))
		case 2:
			steps = append(steps, CordonRandomNode())
		case 3:
			steps = append(steps, UncordonRandomNode())
		default:
			steps = append(steps, StopWorkload())
		}
	}
	steps = append(steps, PlacementSpreadReport())
	return Scenario{Name: "hotspot", Seed: seed, Config: core.SecureConfig(), Steps: steps}
}

// DrainStormCampaign hammers the node lifecycle: a loaded fleet suffers
// waves of cordons, drains (some cancelled mid-migration, some blocked
// on capacity), crashes of drained-and-forgotten nodes, and fresh
// joins — while the no-drain-leaks-capacity invariant recomputes the
// whole accounting surface after every step.
func DrainStormCampaign(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	steps := []Step{
		SetQuota("acme", orchestrator.Resources{CPUMilli: 24000, MemoryMB: 49152}),
	}
	for i := 0; i < 5; i++ {
		steps = append(steps, JoinNode(nodeCapacity))
	}
	for i := 0; i < 8; i++ {
		policy := ""
		if i%2 == 0 {
			policy = orchestrator.PlacementSpread
		}
		steps = append(steps, DeployPolicy("acme", CleanImageRef, orchestrator.IsolationSoft,
			smallDemand, policy))
	}
	for wave := 0; wave < 8; wave++ {
		switch r.Intn(6) {
		case 0:
			steps = append(steps, DrainRandomNode(-1)) // run to completion
		case 1:
			steps = append(steps, DrainRandomNode(1+r.Intn(2))) // cancel mid-migration
		case 2:
			steps = append(steps, CordonRandomNode())
		case 3:
			steps = append(steps, UncordonRandomNode())
		case 4:
			steps = append(steps, CrashRandomNode(), JoinNode(nodeCapacity))
		default:
			steps = append(steps, Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand))
		}
		steps = append(steps, AdvanceClock(50))
	}
	steps = append(steps, PlacementSpreadReport())
	return Scenario{Name: "drain-storm", Seed: seed, Config: core.SecureConfig(), Steps: steps}
}

// DeployStormCampaign is the warm-pool storm: repeat-deploy churn on a
// platform running with the warm-slot runtime pool enabled (tight
// watermarks, so parking triggers pressure evictions), interleaved with
// stops (which park slots), node crashes, drains, and cordon flips
// (which flush them), and a kill-restart leg (after which the pool must
// be cold — warm slots are deliberately not persisted). The
// warm-slots-never-leak invariant recomputes the full slot accounting
// after every step: every slot idle on exactly one live uncordoned
// node, claimed by exactly one live workload, or gone; and
// no-drain-leaks-capacity folds the idle reservations into its per-node
// usage recompute.
func DeployStormCampaign(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	cfg := core.SecureConfig()
	cfg.ClusterSettings.WarmPoolEnabled = true
	cfg.ClusterSettings.WarmPoolHighWatermarkPct = 70
	cfg.ClusterSettings.WarmPoolLowWatermarkPct = 40
	steps := []Step{
		SetQuota("acme", orchestrator.Resources{CPUMilli: 24000, MemoryMB: 49152}),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
	}
	// Seed the pool. Hard isolation matters here: a dedicated VM is its
	// workload's sole occupant, so every stop parks it warm — soft
	// workloads share VMs under binpack and rarely park. Six deploys
	// binpack one node to 75%, just over the 70% high watermark: the
	// first park is immediately watermark-evicted (deterministic
	// slot.evict coverage), dropping the node to 62.5%, under the
	// watermark — so the next three parks are guaranteed to stick.
	for i := 0; i < 6; i++ {
		steps = append(steps, Deploy("acme", CleanImageRef, orchestrator.IsolationHard, smallDemand))
	}
	for i := 0; i < 4; i++ {
		steps = append(steps, StopNewestWorkload())
	}
	// Deterministic repeat-deploy pair: the slots just parked are
	// reclaimed here whatever the seed, so every run exercises the warm
	// claim fast path at least twice.
	steps = append(steps,
		Deploy("acme", CleanImageRef, orchestrator.IsolationHard, smallDemand),
		Deploy("acme", CleanImageRef, orchestrator.IsolationHard, smallDemand),
	)
	// Deterministic flush: utilization is still well under the high
	// watermark here, so the third parked slot is guaranteed idle —
	// draining its node must discard it (slot.flush) before the drain's
	// migration accounting balances.
	steps = append(steps, DrainWarmestNode(-1))
	// The storm: repeat deploys of the pooled image (warm claims), more
	// stop/deploy churn (parks racing claims), shared-VM soft traffic
	// alongside, and the full lifecycle pressure set.
	for wave := 0; wave < 16; wave++ {
		switch r.Intn(9) {
		case 0, 1, 2:
			steps = append(steps, Deploy("acme", CleanImageRef, orchestrator.IsolationHard, smallDemand))
		case 3:
			steps = append(steps, StopWorkload())
		case 4:
			steps = append(steps, Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand))
		case 5:
			steps = append(steps, CrashRandomNode(), JoinNode(nodeCapacity))
		case 6:
			steps = append(steps, DrainRandomNode(-1))
		case 7:
			steps = append(steps, CordonRandomNode(), UncordonRandomNode())
		default:
			steps = append(steps, AdvanceClock(100))
		}
	}
	// The cold-restart leg: parked slots must not survive recovery. The
	// deploy/stop-newest pair guarantees a slot is idle at the kill; the
	// first deploy after the restart must therefore be a miss (the pool
	// restarts cold), and the final pair proves warm claims work again
	// post-recovery.
	steps = append(steps,
		Deploy("acme", CleanImageRef, orchestrator.IsolationHard, smallDemand),
		StopNewestWorkload(),
		KillRestart(),
		Deploy("acme", CleanImageRef, orchestrator.IsolationHard, smallDemand),
		StopNewestWorkload(),
		Deploy("acme", CleanImageRef, orchestrator.IsolationHard, smallDemand),
		AdvanceClock(200),
	)
	return Scenario{Name: "deploy-storm", Seed: seed, Config: cfg,
		Persist: true, Steps: steps}
}

// WireDeployStormCampaign is the networked-control-plane storm: the
// platform is hosted behind the geniod HTTP handler on a loopback
// listener and every deployment — floods, async cancel waves, the lot —
// crosses the full wire stack (Ed25519-signed request, encode, HTTP,
// typed-error decode) while node churn and metric bursts run in-process
// underneath. The lifecycle-ledger-balanced, no-silent-event-drops, and
// cancelled-never-placed invariants must hold across the wire exactly
// as they do in-process.
func WireDeployStormCampaign(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	steps := []Step{
		SetQuota("acme", orchestrator.Resources{CPUMilli: 16000, MemoryMB: 32768}),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		WireDeploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
	}
	for wave := 0; wave < 4; wave++ {
		steps = append(steps,
			WireDeployFlood(6+r.Intn(6), "acme", smallDemand, allImageRefs...),
			WireDeployBatch(4+r.Intn(5), "acme", smallDemand, allImageRefs...),
			WireCancelStorm(3+r.Intn(3), "acme", smallDemand,
				CleanImageRef, SASTFlaggedImageRef),
		)
		switch r.Intn(3) {
		case 0:
			steps = append(steps, CrashRandomNode(), JoinNode(nodeCapacity))
		case 1:
			steps = append(steps, MetricBurst(30+r.Intn(40)))
		default:
			steps = append(steps, AdvanceClock(150))
		}
	}
	steps = append(steps, WireLedgerProbe(), AdvanceClock(200))
	return Scenario{Name: "wire-deploy-storm", Seed: seed, Config: core.SecureConfig(), Wire: true, Steps: steps}
}

// KillRestartCampaign is the durability campaign: ordinary mixed traffic
// (joins, crashes, deploys across the verdict spectrum, stops, cordons,
// incident storms) on a WAL-backed platform, with the process killed at a
// seeded random step and rebuilt from its data directory — twice, so
// recovery is also exercised over a directory that already holds a
// snapshot from the first incarnation's cadence. The recovery-exact
// invariant demands the post-recovery state equal the pre-crash
// fingerprint byte for byte; every other invariant keeps running across
// the restarts, so recovered state must satisfy the full dependability
// surface, not merely equal itself.
//
// ONU churn is deliberately absent: far-edge infrastructure objects (OLT
// key material, attested TPM state) are process state, re-established by
// re-provisioning rather than replayed from the log.
func KillRestartCampaign(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	steps := []Step{
		SetQuota("acme", orchestrator.Resources{CPUMilli: 20000, MemoryMB: 40960}),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
		Deploy("acme", SASTFlaggedImageRef, orchestrator.IsolationHard, smallDemand),
	}
	traffic := func() Step {
		switch r.Intn(7) {
		case 0:
			return JoinNode(nodeCapacity)
		case 1:
			return CrashRandomNode()
		case 2:
			return Deploy("acme", allImageRefs[r.Intn(len(allImageRefs))],
				orchestrator.IsolationSoft, smallDemand)
		case 3:
			return StopWorkload()
		case 4:
			return CordonRandomNode()
		case 5:
			return IncidentStorm(2+r.Intn(3), 0.4, "acme")
		default:
			return AdvanceClock(100)
		}
	}
	// The crash lands at a seeded random step inside the traffic. The
	// join+deploy immediately ahead of it guarantee the recovered state is
	// never trivially empty, whatever the seeded storm stopped or crashed.
	for i, n := 0, 5+r.Intn(8); i < n; i++ {
		steps = append(steps, traffic())
	}
	steps = append(steps,
		JoinNode(nodeCapacity),
		Deploy("acme", CleanImageRef, orchestrator.IsolationHard, smallDemand),
		KillRestart())
	for i, n := 0, 4+r.Intn(6); i < n; i++ {
		steps = append(steps, traffic())
	}
	steps = append(steps, KillRestart(), AdvanceClock(200))
	return Scenario{Name: "kill-restart", Seed: seed, Config: core.SecureConfig(),
		Persist: true, Steps: steps}
}

// RegionOutageCampaign is the federation storm: a three-member fleet
// across two regions — edge-a and edge-b in region-a (edge-a being the
// platform's default member), edge-c alone in region-b — takes mixed
// tenant traffic with tenant gov hard-pinned to region-a, then loses
// edge-b to a full evacuation mid-storm: every workload it held is
// re-placed through the ring into surviving members honouring the pin,
// its nodes die with it, and traffic keeps arriving afterwards. The
// no-cross-region-leak invariant checks residency after every step, and
// the whole pre-existing invariant surface (quota, capacity, drain
// accounting, event ledger) runs per member throughout.
func RegionOutageCampaign(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	steps := []Step{
		SetQuota("acme", orchestrator.Resources{CPUMilli: 24000, MemoryMB: 49152}),
		SetQuota("gov", orchestrator.Resources{CPUMilli: 12000, MemoryMB: 24576}),
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		JoinFedNode("edge-b", nodeCapacity),
		JoinFedNode("edge-b", nodeCapacity),
		JoinFedNode("edge-c", nodeCapacity),
		JoinFedNode("edge-c", nodeCapacity),
		// Baseline traffic: ring-routed, pinned, and region-constrained.
		Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
		Deploy("gov", CleanImageRef, orchestrator.IsolationHard, smallDemand),
		DeployRegion("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand, "region-b"),
		// A pinned tenant asking for a foreign region is refused outright.
		DeployRegion("gov", CleanImageRef, orchestrator.IsolationSoft, smallDemand, "region-b"),
	}
	for i := 0; i < 8; i++ {
		switch r.Intn(4) {
		case 0:
			steps = append(steps, Deploy("acme", allImageRefs[r.Intn(len(allImageRefs))],
				orchestrator.IsolationSoft, smallDemand))
		case 1:
			steps = append(steps, Deploy("gov", CleanImageRef, orchestrator.IsolationSoft, smallDemand))
		case 2:
			steps = append(steps, DeployRegion("acme", CleanImageRef, orchestrator.IsolationSoft,
				smallDemand, "region-a"))
		default:
			steps = append(steps, AdvanceClock(100))
		}
	}
	// The outage: edge-b — half of region-a's capacity, never the default
	// member — evacuates mid-storm; the pin must hold through re-placement
	// (gov workloads may only land on edge-a) while acme's move anywhere.
	steps = append(steps,
		IncidentStorm(4, 0.4, "acme"),
		EvacuateClusterStep("edge-b"),
		Deploy("gov", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
		DeployRegion("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand, "region-b"),
	)
	for i := 0; i < 6; i++ {
		switch r.Intn(4) {
		case 0:
			steps = append(steps, Deploy("acme", allImageRefs[r.Intn(len(allImageRefs))],
				orchestrator.IsolationSoft, smallDemand))
		case 1:
			steps = append(steps, CrashRandomNode())
		case 2:
			steps = append(steps, ONUChurn(1+r.Intn(3)))
		default:
			steps = append(steps, Deploy("gov", CleanImageRef, orchestrator.IsolationHard, smallDemand))
		}
	}
	steps = append(steps, PlacementSpreadReport(), AdvanceClock(200))
	return Scenario{
		Name: "region-outage", Seed: seed, Config: core.SecureConfig(), Steps: steps,
		Federation: []FedMember{
			{Name: "edge-a", Region: "region-a"},
			{Name: "edge-b", Region: "region-a"},
			{Name: "edge-c", Region: "region-b"},
		},
		Pins: []TenantPin{{Tenant: "gov", Region: "region-a"}},
	}
}

// IncidentStormCampaign models runtime threat pressure: waves of mixed
// benign/malicious traces with a rising attack ratio, through sandbox
// enforcement and falco detection.
func IncidentStormCampaign(seed int64) Scenario {
	steps := []Step{
		JoinNode(nodeCapacity),
		JoinNode(nodeCapacity),
		Deploy("acme", CleanImageRef, orchestrator.IsolationSoft, smallDemand),
		Deploy("acme", SASTFlaggedImageRef, orchestrator.IsolationSoft, smallDemand),
		Deploy("rival", CleanImageRef, orchestrator.IsolationHard, smallDemand),
	}
	for wave := 0; wave < 5; wave++ {
		steps = append(steps,
			IncidentStorm(8, 0.15*float64(wave+1), "acme"),
			AdvanceClock(500),
		)
	}
	return Scenario{Name: "incident-storm", Seed: seed, Config: core.SecureConfig(), Steps: steps}
}
