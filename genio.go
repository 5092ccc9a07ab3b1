// Package genio is the public API of the GENIO reproduction: a secure-by-
// design edge-computing platform on Passive Optical Network infrastructure,
// as described in "Security-by-Design at the Telco Edge with OSS:
// Challenges and Lessons Learned" (DSN 2025).
//
// The facade re-exports the platform core and the vocabulary types needed
// to drive it; the specialised subsystems (PON simulation, TPM, scanners,
// detectors, ...) live in internal packages and are reachable through the
// Platform's fields and the returned node/workload handles.
//
// The platform is safe for concurrent multi-tenant use: each deployment
// runs the admission scanners on its own goroutine (with clean verdicts
// cached per image digest), DeployContext and DeployBatchContext may be
// called from many goroutines, and every telemetry stream — incidents, falco
// alerts, control-plane audit records, metrics, deployment lifecycle —
// flows through one ordered event spine. Incidents reads the ledger
// directly; Subscribe to consume any stream live, Flush before asserting
// on what a subscriber saw, and Close when discarding a platform.
//
// Control-plane API v2. Deploys take a context (DeployContext,
// DeployBatchContext), and every other blocking entry point has a
// context-first variant (AddEdgeNodeContext, AttachONUContext,
// FlushContext, PublishEventContext): cancellation or
// deadline expiry aborts in-flight admission scans without placing the
// workload or leaking pool goroutines. DeployAsync returns a
// *Deployment future whose transitions (pending -> scanning -> placing
// -> running | rejected | cancelled) stream on the deploy.lifecycle
// topic, and Watch turns that topic into a filtered channel. Rejections
// are typed — *AdmissionError (per-scanner verdicts), *QuotaError,
// *CapacityError, *UnauthorizedError, *DuplicateNameError,
// *ImagePullError — all errors.Is-matching the ErrRejected umbrella
// plus their specific sentinels. Cancellations match ErrCancelled (and
// context.Canceled / context.DeadlineExceeded via Unwrap); operations
// on a closed platform return *ClosedError matching ErrClosed — both
// deliberately outside the rejection umbrella.
//
// Quick start:
//
//	p, err := genio.NewPlatform(genio.SecureConfig())
//	defer p.Close()
//	node, err := p.AddEdgeNode("olt-01", genio.Resources{CPUMilli: 8000, MemoryMB: 16384})
//	onu, err := p.AttachONU("olt-01", "onu-0001")
//
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	d, err := p.DeployAsync(ctx, "tenant-ci", genio.WorkloadSpec{...})
//	w, err := d.Result() // or select on d.Done(); d.Cancel() to abort
//	var adm *genio.AdmissionError
//	if errors.As(err, &adm) { ... adm.Verdicts ... }
//
// Watching workload lifecycle (genioctl watch, SIEM export):
//
//	events, err := p.Watch(ctx, genio.WatchSelector{Tenant: "acme"})
//	for ev := range events { fmt.Println(ev.Workload, ev.State) }
//
// Consuming the raw event spine (a SIEM exporter, a dashboard):
//
//	sub, err := p.Subscribe("siem", []genio.Topic{genio.TopicIncident, genio.TopicAudit},
//		func(batch []genio.Event) { ... })
//	defer sub.Cancel()
//	stats := p.Metrics() // per-topic published/delivered/dropped
package genio

import (
	"genio/internal/attack"
	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/federation"
	"genio/internal/orchestrator"
	"genio/internal/pon"
	"genio/internal/threatmodel"
)

// Platform is a running GENIO deployment. See core.Platform.
type Platform = core.Platform

// Config selects which mitigations are active. See core.Config.
type Config = core.Config

// EdgeNode is a provisioned OLT edge hub.
type EdgeNode = core.EdgeNode

// Incident is one security-relevant occurrence recorded by the platform.
type Incident = core.Incident

// WorkloadSpec describes a deployment request.
type WorkloadSpec = orchestrator.WorkloadSpec

// Resources is a CPU/memory demand or capacity.
type Resources = orchestrator.Resources

// IsolationMode selects hard (dedicated VM) or soft (shared VM container)
// isolation.
type IsolationMode = orchestrator.IsolationMode

// Isolation modes.
const (
	IsolationSoft = orchestrator.IsolationSoft
	IsolationHard = orchestrator.IsolationHard
)

// Placement strategies for WorkloadSpec.PlacementPolicy and the
// cluster-wide default (Config.ClusterSettings.PlacementStrategy):
// binpack packs for density, spread fans
// out for HA. See internal/orchestrator/scheduler for the policy
// pipeline.
const (
	PlacementBinpack = orchestrator.PlacementBinpack
	PlacementSpread  = orchestrator.PlacementSpread
)

// NodeUtilization is one node's placement state (capacity accounting,
// cordon flag, workload and shared-VM counts) as returned by
// Platform.Cluster.Utilization.
type NodeUtilization = orchestrator.NodeUtilization

// DrainResult reports a node drain's outcome (Platform.Drain).
type DrainResult = orchestrator.DrainResult

// DrainEvent is one observable step of a node drain — the payload of
// node.drain spine events.
type DrainEvent = orchestrator.DrainEvent

// Drain phases carried in DrainEvent.Phase.
const (
	DrainCordoned  = orchestrator.DrainCordoned
	DrainMigrated  = orchestrator.DrainMigrated
	DrainCompleted = orchestrator.DrainCompleted
	DrainCancelled = orchestrator.DrainCancelled
	DrainFailed    = orchestrator.DrainFailed
)

// PON security modes (M3/M4 posture of the optical segment).
const (
	PONPlaintext     = pon.ModePlaintext
	PONEncrypted     = pon.ModeEncrypted
	PONAuthenticated = pon.ModeAuthenticated
)

// Event is one record published on the platform's event spine.
type Event = events.Event

// Topic names one event stream on the spine.
type Topic = events.Topic

// Built-in spine topics.
const (
	TopicIncident        = events.TopicIncident
	TopicFalcoAlert      = events.TopicFalcoAlert
	TopicAudit           = events.TopicAudit
	TopicMetric          = events.TopicMetric
	TopicDeployLifecycle = events.TopicDeployLifecycle
	TopicNodeDrain       = events.TopicNodeDrain
)

// Metric is the common payload vocabulary for TopicMetric events.
type Metric = events.Metric

// AuditEvent is the payload of TopicAudit events: one control-plane
// decision (admission verdict, placement, failover, eviction, node
// membership change).
type AuditEvent = orchestrator.AuditEvent

// Subscription is a live spine subscription; Cancel detaches it.
type Subscription = events.Subscription

// BatchHandler receives delivered event batches (see events.BatchHandler
// for the concurrency contract).
type BatchHandler = events.BatchHandler

// EventStats is the per-topic spine accounting returned by
// Platform.Metrics.
type EventStats = events.Stats

// PlatformOption configures a Platform beyond its mitigation Config.
type PlatformOption = core.Option

// WithClock installs a millisecond time source on the platform (see
// core.WithClock); simulations use it to make runs replayable.
func WithClock(now func() int64) PlatformOption { return core.WithClock(now) }

// NewPlatform builds a platform with the given mitigation configuration.
func NewPlatform(cfg Config, opts ...PlatformOption) (*Platform, error) {
	return core.New(cfg, opts...)
}

// --- Control-plane API v2: futures, lifecycle, typed errors -----------------

// Deployment is an asynchronous deployment future returned by
// Platform.DeployAsync: Done/Result/Cancel plus the live State.
type Deployment = core.Deployment

// DeployState is one state of the asynchronous deployment lifecycle.
type DeployState = core.DeployState

// Lifecycle states: pending, scanning, and placing are transient;
// running, rejected, and cancelled are terminal.
const (
	StatePending   = core.StatePending
	StateScanning  = core.StateScanning
	StatePlacing   = core.StatePlacing
	StateRunning   = core.StateRunning
	StateRejected  = core.StateRejected
	StateCancelled = core.StateCancelled
)

// LifecycleEvent is the payload of deploy.lifecycle spine events and the
// element type of Watch channels.
type LifecycleEvent = core.LifecycleEvent

// WatchSelector filters Platform.Watch (zero value = everything).
type WatchSelector = core.WatchSelector

// Typed control-plane errors. All are errors.As-able from any rejection
// the deploy pipeline returns; the rejection types errors.Is-match both
// their specific sentinel and the ErrRejected umbrella, while
// CancelledError matches ErrCancelled and ClosedError matches ErrClosed
// (neither is a rejection).
type (
	// AdmissionError carries the full per-scanner verdict vector of a
	// rejected deployment.
	AdmissionError = orchestrator.AdmissionError
	// ScannerVerdict is one admission controller's outcome.
	ScannerVerdict = orchestrator.ScannerVerdict
	// ImagePullError is a registry pull failure (unknown ref, unsigned,
	// bad signature); Unwrap exposes the container sentinel.
	ImagePullError = orchestrator.ImagePullError
	// CapacityError reports that no node could host the demand.
	CapacityError = orchestrator.CapacityError
	// QuotaError reports a tenant-quota rejection with its arithmetic.
	QuotaError = orchestrator.QuotaError
	// UnauthorizedError reports an RBAC denial.
	UnauthorizedError = orchestrator.UnauthorizedError
	// DuplicateNameError reports a workload-name collision.
	DuplicateNameError = orchestrator.DuplicateNameError
	// NodeNotFoundError reports an operation on an unknown edge node.
	NodeNotFoundError = orchestrator.NodeNotFoundError
	// PlacementPolicyError reports a deploy naming an unknown placement
	// policy.
	PlacementPolicyError = orchestrator.PlacementPolicyError
	// InvalidDemandError reports a deploy requesting negative resources.
	InvalidDemandError = orchestrator.InvalidDemandError
	// DrainError reports a drain blocked by a workload that fits nowhere.
	DrainError = orchestrator.DrainError
	// CancelledError reports a deployment aborted by its context.
	CancelledError = orchestrator.CancelledError
	// ClosedError reports a control-plane operation on a closed platform.
	ClosedError = core.ClosedError
)

// Control-plane sentinels for errors.Is.
var (
	// ErrRejected matches every typed rejection of the deploy pipeline.
	ErrRejected = orchestrator.ErrRejected
	// ErrCancelled matches context-aborted deployments.
	ErrCancelled = orchestrator.ErrCancelled
	// ErrDenied matches admission-chain rejections.
	ErrDenied = orchestrator.ErrDenied
	// ErrNoCapacity matches capacity rejections.
	ErrNoCapacity = orchestrator.ErrNoCapacity
	// ErrQuotaExceeded matches tenant-quota rejections.
	ErrQuotaExceeded = orchestrator.ErrQuotaExceeded
	// ErrUnauthorized matches RBAC denials.
	ErrUnauthorized = orchestrator.ErrUnauthorized
	// ErrDuplicateName matches workload-name collisions.
	ErrDuplicateName = orchestrator.ErrDuplicateName
	// ErrClosed matches operations on a closed platform or spine.
	ErrClosed = events.ErrClosed
)

// --- Fleet federation --------------------------------------------------------

// FederationMember names one cluster (site / region) of a federated
// platform.
type FederationMember = core.FederationMember

// WithFederation runs the platform as the control plane of N named
// clusters: deploys route region-filter → consistent-hash ring →
// per-cluster scheduler, and EvacuateCluster re-places a dead member's
// workloads across the survivors. See core.WithFederation.
func WithFederation(members ...FederationMember) PlatformOption {
	return core.WithFederation(members...)
}

// EvacuationResult reports a cluster evacuation's moves and losses.
type EvacuationResult = federation.EvacuationResult

// Federation typed errors. The first two are deploy rejections matching
// the ErrRejected umbrella; ClusterNotFoundError matches ErrNotFound.
type (
	// RegionPinnedError reports a deploy that named a region conflicting
	// with its tenant's data-residency pin.
	RegionPinnedError = federation.RegionPinnedError
	// FederationCapacityError reports that no eligible cluster could
	// host the demand; Unwrap exposes the last per-cluster rejection.
	FederationCapacityError = federation.FederationCapacityError
	// ClusterNotFoundError reports an operation on an unknown
	// federation member.
	ClusterNotFoundError = federation.ClusterNotFoundError
)

// Federation sentinels for errors.Is.
var (
	// ErrRegionPinned matches tenant-pin violations.
	ErrRegionPinned = federation.ErrRegionPinned
	// ErrClusterNotFound matches operations on unknown clusters.
	ErrClusterNotFound = federation.ErrClusterNotFound
)

// SecureConfig returns the paper's full security-by-design posture.
func SecureConfig() Config { return core.SecureConfig() }

// LegacyConfig returns the unprotected pre-project posture.
func LegacyConfig() Config { return core.LegacyConfig() }

// ThreatModel returns the paper's STRIDE model (threats T1–T8, mitigations
// M1–M18, and the Figure-3 coverage matrix).
func ThreatModel() *threatmodel.Model { return threatmodel.GENIOModel() }

// Campaign executes scripted adversaries for T1–T8 against a platform.
type Campaign = attack.Campaign

// AttackResult is one executed attack with its outcome.
type AttackResult = attack.Result

// Attack outcomes.
const (
	AttackBlocked  = attack.OutcomeBlocked
	AttackDetected = attack.OutcomeDetected
	AttackMissed   = attack.OutcomeMissed
)

// NewCampaign prepares an attack campaign against p.
func NewCampaign(p *Platform) (*Campaign, error) { return attack.NewCampaign(p) }

// SummarizeAttacks tallies campaign outcomes.
func SummarizeAttacks(results []AttackResult) map[attack.Outcome]int {
	return attack.Summary(results)
}
