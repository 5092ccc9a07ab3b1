// Package core assembles the GENIO platform: the cloud / edge / far-edge
// deployment of Figure 1, the software architecture of Figure 2, and the
// full security pipeline of Sections IV–VI wired end to end.
//
// A Platform owns a certificate authority, a boot-signing authority, the
// container registry, and the orchestration cluster; edge nodes (OLTs) are
// provisioned through the M1–M9 infrastructure pipeline (hardening, secure
// boot, attestation, sealed storage, file-integrity baseline), ONUs onboard
// through M3/M4, and workloads pass the M10–M18 admission and runtime
// pipeline. Every mitigation is individually switchable, which is what the
// end-to-end attack experiments toggle.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"genio/internal/container"
	"genio/internal/events"
	"genio/internal/federation"
	"genio/internal/fim"
	"genio/internal/host"
	"genio/internal/malware"
	"genio/internal/orchestrator"
	"genio/internal/persist"
	"genio/internal/pki"
	"genio/internal/pon"
	"genio/internal/rbac"
	"genio/internal/sandbox"
	"genio/internal/sast"
	"genio/internal/sca"
	"genio/internal/scap"
	"genio/internal/secureboot"
	"genio/internal/storage"
	"genio/internal/tpm"
	"genio/internal/trace"
	"genio/internal/vuln"

	falcoengine "genio/internal/falco"
)

// Config selects which mitigations are active. The zero value is the
// fully unprotected legacy posture; SecureConfig returns the paper's
// security-by-design posture.
type Config struct {
	// Infrastructure level.
	PONMode       pon.SecurityMode // M3/M4: plaintext, encrypted, authenticated
	HardenOS      bool             // M1/M2
	SecureBoot    bool             // M5
	SealedStorage bool             // M6 (TPM-bound volume unlock)
	FIMEnabled    bool             // M7
	// VulnManagement enables periodic CVE scanning and patching of OS and
	// middleware components (M8/M12).
	VulnManagement bool
	// Middleware level.
	ClusterSettings       orchestrator.Settings // M11 posture
	RBACEnabled           bool                  // M10
	VerifyImageSignatures bool                  // supply-chain gate
	// Application level.
	AdmissionScanning bool // M13/M14/M16 gates at deploy time
	SandboxEnabled    bool // M17
	RuntimeMonitoring bool // M18
	TenantQuotas      bool // T8 resource-abuse counter
}

// SecureConfig returns the full security-by-design posture.
func SecureConfig() Config {
	return Config{
		PONMode:               pon.ModeAuthenticated,
		HardenOS:              true,
		SecureBoot:            true,
		SealedStorage:         true,
		FIMEnabled:            true,
		VulnManagement:        true,
		ClusterSettings:       orchestrator.HardenedSettings(),
		RBACEnabled:           true,
		VerifyImageSignatures: true,
		AdmissionScanning:     true,
		SandboxEnabled:        true,
		RuntimeMonitoring:     true,
		TenantQuotas:          true,
	}
}

// LegacyConfig returns the unprotected pre-project posture.
func LegacyConfig() Config {
	return Config{
		PONMode:         pon.ModePlaintext,
		ClusterSettings: orchestrator.InsecureDefaults(),
	}
}

// Incident is one security-relevant occurrence recorded by the platform.
// It is the durable log's record type, so the ledger, its WAL records
// and its snapshots share one shape.
type Incident = persist.Incident

// Option configures a Platform beyond its mitigation Config.
type Option func(*Platform)

// WithClock installs a millisecond time source on the platform and every
// subsystem with a time seam: incidents, workload placements, failovers,
// and falco alerts are stamped with it. Simulations inject a deterministic
// virtual clock so runs are replayable from a seed; without this option
// all stamps stay zero and behavior is unchanged.
func WithClock(now func() int64) Option {
	return func(p *Platform) { p.now = now }
}

// EdgeNode is a provisioned OLT edge hub.
type EdgeNode struct {
	Name     string
	Host     *host.Host
	TPM      *tpm.TPM
	Firmware *secureboot.Firmware
	Volume   *storage.Volume
	OLT      *pon.OLT
	FIM      *fim.Monitor
	Chain    []secureboot.Component
	Attested bool
	// ManualUnlock is true when sealed storage was unavailable and the
	// node needed a passphrase at boot (Lesson 3).
	ManualUnlock bool
}

// Errors returned by platform operations.
var (
	ErrBootFailed   = errors.New("core: node failed verified boot")
	ErrAttestFailed = errors.New("core: node attestation failed")
	ErrNoNode       = errors.New("core: unknown edge node")
)

// Platform is a running GENIO deployment. Safe for concurrent use: node
// state sits behind a read/write lock, every telemetry stream flows
// through one event spine (see events.go and internal/events), and
// deployments fan admission scanning out inside the cluster. Call Flush
// before asserting on what spine subscribers saw, and Close when
// discarding the platform.
type Platform struct {
	Config   Config
	CA       *pki.CA
	Signer   *secureboot.Signer
	Registry *container.Registry
	Cluster  *orchestrator.Cluster
	Enforcer *sandbox.Enforcer
	Detector *falcoengine.Engine
	RBAC     *rbac.Engine

	// bootChain is the golden boot chain, signed once in New, and goldenPCRs
	// the reference values a pristine boot of it produces. Both are
	// read-only afterwards: every node boots its own deep copy of the
	// chain and is attested against goldenPCRs.
	bootChain  []secureboot.Component
	goldenPCRs map[int]tpm.Digest

	nodeMu sync.RWMutex
	nodes  map[string]*EdgeNode

	// spine is the unified pub/sub backbone every telemetry stream
	// leaves through.
	spine *events.Spine

	// incMu guards the incident ledger. recordIncident assigns the Seq,
	// appends the WAL record and appends to the log in one critical
	// section, so the log is always exactly Seq 1..n in record order.
	incMu     sync.RWMutex
	incSeq    uint64
	incidents []Incident
	incCounts map[string]int

	// now, when non-nil, stamps incidents (set once at construction via
	// WithClock; read-only afterwards, so concurrent recorders need no
	// lock).
	now func() int64

	// closed flips on the first Close. New deployments are refused with a
	// *ClosedError afterwards; telemetry keeps the spine's post-close
	// contract (late incidents still join the ledger). done closes once the
	// spine has drained, ending every Watch stream.
	closed atomic.Bool
	done   chan struct{}

	// Durable state (see persist.go). store is nil unless WithStore was
	// given; snapMu serializes snapshots (and lets close wait out an
	// in-flight one).
	store      persist.Store
	snapEvery  int
	mutCount   atomic.Int64 // records since the last snapshot trigger
	snapSize   atomic.Int64 // last snapshot's size (adaptive cadence)
	snapMu     sync.Mutex
	storeClose sync.Once
	// storeErr holds the first persist failure (sticky, type error);
	// storeFail guards the one-time operator signal when it happens.
	storeErr  atomic.Value
	storeFail sync.Once

	// Federation state (see federation.go). Federation is nil unless
	// WithFederation was given; fedClusters lists every member cluster
	// (the default cluster first) for fan-out operations that must hit
	// all of them (quota defaults, node verbs).
	Federation  *federation.Federation
	fedMembers  []FederationMember
	fedClusters []*orchestrator.Cluster

	// Far-edge state (see faredge.go).
	feMu    sync.Mutex
	farEdge map[string]*farEdgeState
}

// New builds a platform with the given mitigation configuration.
func New(cfg Config, opts ...Option) (*Platform, error) {
	ca, err := pki.NewCA("genio-root")
	if err != nil {
		return nil, fmt.Errorf("platform ca: %w", err)
	}
	signer, err := secureboot.NewSigner()
	if err != nil {
		return nil, fmt.Errorf("boot signer: %w", err)
	}
	reg := container.NewRegistry()
	settings := cfg.ClusterSettings
	settings.RBACEnabled = cfg.RBACEnabled
	cluster := orchestrator.NewCluster("genio-edge", reg, settings)
	cluster.VerifyImageSignatures = cfg.VerifyImageSignatures

	p := &Platform{
		Config:    cfg,
		CA:        ca,
		Signer:    signer,
		Registry:  reg,
		Cluster:   cluster,
		Enforcer:  sandbox.NewEnforcer(),
		Detector:  falcoengine.NewEngine(falcoengine.DefaultRules()),
		RBAC:      rbac.NewEngine(),
		nodes:     make(map[string]*EdgeNode),
		spine:     events.NewSpine(),
		incCounts: make(map[string]int),
		done:      make(chan struct{}),
	}
	p.bootChain = []secureboot.Component{
		signer.SignComponent(secureboot.StageShim, "shim", []byte("shim-15.8")),
		signer.SignComponent(secureboot.StageBootloader, "grub", []byte("grub-2.06")),
		signer.SignComponent(secureboot.StageKernel, "kernel", []byte("vmlinuz-onl-4.19")),
		signer.SignComponent(secureboot.StageInitrd, "initrd", []byte("initrd-onl")),
		signer.SignComponent(secureboot.StageConfig, "cmdline", []byte("mitigations=auto")),
	}
	p.goldenPCRs = secureboot.GoldenPCRs(p.bootChain)
	cluster.RBAC = p.RBAC
	cluster.SetAuditSink(p.publishAudit)
	for _, opt := range opts {
		opt(p)
	}
	if p.now != nil {
		cluster.SetClock(p.now)
		p.Detector.SetTimeSource(p.now)
	}
	if len(p.fedMembers) > 0 {
		if err := p.initFederation(); err != nil {
			return nil, fmt.Errorf("federation: %w", err)
		}
	}
	if cfg.AdmissionScanning {
		registerScanners(p.Cluster)
	}
	if p.store != nil {
		// Recover BEFORE installing the mutation sink, so the import is
		// not re-logged; every mutation after this point is durable.
		if err := p.recoverFromStore(); err != nil {
			return nil, fmt.Errorf("recover store: %w", err)
		}
		cluster.SetMutationSink(p.appendMutation)
	}
	return p, nil
}

// registerScanners wires the M13/M14/M16 gates into the platform's one
// admission chain — federation members share it, so a platform holds one
// scanner set and one verdict cache however many members it has.
// Every gate's verdict depends only on the image content, so all
// register cacheable: a clean image scanned once deploys across every
// member and node without re-scanning, while rejections always re-run
// (and re-report). Every gate is context-aware — a cancelled deployment's
// scanners abandon their scan between files — and pure: it returns its
// verdict and records nothing; recordAdmissionIncidents turns the final
// verdict into incidents.
func registerScanners(c *orchestrator.Cluster) {
	malScanner, err := malware.NewScanner(malware.DefaultRules())
	if err != nil {
		// Stock rules are compile-tested; failure here is programmer error.
		panic(fmt.Sprintf("core: compile stock malware rules: %v", err))
	}
	c.RegisterAdmissionCachedCtx("malware-scan", func(ctx context.Context, _ orchestrator.WorkloadSpec, img *container.Image) error {
		rep, err := malScanner.ScanContext(ctx, img)
		if err != nil {
			return err
		}
		if rep.Malicious() {
			return fmt.Errorf("malware detected: %s in %s", rep.Matches[0].Rule, rep.Matches[0].Path)
		}
		return nil
	})

	bench := scap.DockerBenchProfile()
	c.RegisterAdmissionCachedCtx("docker-bench", func(ctx context.Context, _ orchestrator.WorkloadSpec, img *container.Image) error {
		rep, err := scap.EvaluateImageContext(ctx, bench, img)
		if err != nil {
			return err
		}
		for _, f := range rep.Failures() {
			if f.Severity >= scap.Critical {
				return fmt.Errorf("image hardening: %s", f.Title)
			}
		}
		return nil
	})

	scaScanner := sca.NewScanner(sca.DependencyDatabase())
	c.RegisterAdmissionCachedCtx("sca-gate", func(ctx context.Context, _ orchestrator.WorkloadSpec, img *container.Image) error {
		full, err := scaScanner.ScanContext(ctx, img)
		if err != nil {
			return err
		}
		rep := full.ReachableOnly()
		for _, f := range rep.Findings {
			if f.CVE.Severity() == vuln.SeverityCritical && f.CVE.Exploitable {
				return fmt.Errorf("exploitable critical dependency: %s in %s %s", f.CVE.ID, f.Dependency.Name, f.Dependency.Version)
			}
		}
		return nil
	})

	sastScanner := sast.NewScanner(sast.DefaultRules())
	c.RegisterAdmissionCachedCtx("sast-gate", func(ctx context.Context, _ orchestrator.WorkloadSpec, img *container.Image) error {
		rep, err := sastScanner.ScanContext(ctx, img)
		if err != nil {
			return err
		}
		for _, f := range rep.Actionable() {
			if f.Severity == sast.Error {
				return fmt.Errorf("static analysis: %s at %s:%d", f.Title, f.Path, f.Line)
			}
		}
		return nil
	})
}

// recordAdmissionIncidents is the one place an admission rejection
// becomes incidents: one per failing verdict of err's verdict vector,
// naming the rejected workload — so the deploy that ran the scan and a
// concurrent deploy that shared its verdict are logged alike. Any other
// error, a cancellation included, records nothing.
func (p *Platform) recordAdmissionIncidents(spec orchestrator.WorkloadSpec, err error) {
	var adm *orchestrator.AdmissionError
	if errors.As(err, &adm) {
		for _, v := range adm.Rejections() {
			p.recordIncident(Incident{Source: "admission", Workload: spec.Name,
				Detail: v.Scanner + ": " + v.Detail, Blocked: true})
		}
	}
}

// AddEdgeNode provisions an OLT through the infrastructure pipeline:
// host build (+M1/M2 hardening), signed boot chain (M5), attestation,
// storage unlock (M6), and FIM baseline (M7). Context-free compatibility
// wrapper over AddEdgeNodeContext.
func (p *Platform) AddEdgeNode(name string, capacity orchestrator.Resources) (*EdgeNode, error) {
	return p.AddEdgeNodeContext(context.Background(), name, capacity)
}

// AddEdgeNodeContext is AddEdgeNode with cancellation: the context is
// checked between the provisioning stages (boot, attestation, storage,
// PON bring-up, FIM baseline), so a cancelled or deadline-exceeded
// provisioning aborts without registering the node. Only two stages need
// the node's PCR state — sealing the volume key to the TPM and unsealing
// it again; stretching the volume's passphrase key (the KDF) needs
// neither the boot nor the attestation, so it runs on its own goroutine
// while they do and is joined before the call returns, on every path.
// Infrastructure built before an abort (host, TPM, a finished encrypted
// volume) is abandoned, not released: those objects are local to the
// call and never registered anywhere, so the garbage collector reclaims
// them and a retried provisioning of the same name starts from scratch.
func (p *Platform) AddEdgeNodeContext(ctx context.Context, name string, capacity orchestrator.Resources) (*EdgeNode, error) {
	return p.addEdgeNodeOn(ctx, p.Cluster, name, capacity)
}

// addEdgeNodeOn is the provisioning pipeline body, parametrized on the
// scheduling cluster the finished node registers with (federated
// platforms route through AddEdgeNodeInContext; everything else targets
// the default cluster).
func (p *Platform) addEdgeNodeOn(ctx context.Context, target *orchestrator.Cluster, name string, capacity orchestrator.Resources) (*EdgeNode, error) {
	if p.closed.Load() {
		return nil, &ClosedError{Op: "add-edge-node"}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The volume's KDF depends on nothing below until BindTPMSlot; the
	// deferred receive joins it on every return path.
	var vol *storage.Volume
	var volErr error
	volDone := make(chan struct{})
	go func() {
		defer close(volDone)
		vol, volErr = storage.CreateVolume(name+"-data", name+"-recovery-phrase")
	}()
	defer func() { <-volDone }()

	h := host.NewONLOLT(name)
	if p.Config.HardenOS {
		host.HardenONLOLT(h)
	}
	nodeTPM, err := tpm.New()
	if err != nil {
		return nil, fmt.Errorf("node tpm: %w", err)
	}
	fw := secureboot.NewFirmware(p.Signer.VendorPub, nodeTPM)
	fw.SecureBoot = p.Config.SecureBoot

	chain := make([]secureboot.Component, len(p.bootChain))
	for i, c := range p.bootChain {
		c.Image, c.Signature = bytes.Clone(c.Image), bytes.Clone(c.Signature)
		chain[i] = c
	}
	if _, err := fw.Boot(p.Signer.PlatformPub, chain); err != nil {
		p.recordIncident(Incident{Source: "boot", Detail: fmt.Sprintf("node %s: %v", name, err), Blocked: true})
		return nil, fmt.Errorf("%w: %v", ErrBootFailed, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Remote attestation against the platform's reference values.
	attested := false
	if p.Config.SecureBoot {
		q, err := nodeTPM.Quote([]int{tpm.PCRKernel}, []byte(name+"-join"))
		if err != nil {
			return nil, fmt.Errorf("quote: %w", err)
		}
		if err := tpm.VerifyQuote(nodeTPM.AttestationPublicKey(), q,
			map[int]tpm.Digest{tpm.PCRKernel: p.goldenPCRs[tpm.PCRKernel]}); err != nil {
			p.recordIncident(Incident{Source: "boot", Detail: fmt.Sprintf("node %s attestation: %v", name, err), Blocked: true})
			return nil, fmt.Errorf("%w: %v", ErrAttestFailed, err)
		}
		attested = true
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	<-volDone
	if volErr != nil {
		return nil, fmt.Errorf("volume: %w", volErr)
	}
	manual := false
	if p.Config.SealedStorage {
		cfg := storage.ClevisConfig{TPM: nodeTPM, PCRSelection: []int{tpm.PCRKernel}, HasTPMLibs: true}
		if err := vol.BindTPMSlot("clevis", cfg); err != nil {
			manual = true // Lesson-3 fallback
		} else {
			vol.Lock()
			if err := vol.UnlockTPM("clevis", nodeTPM); err != nil {
				return nil, fmt.Errorf("sealed unlock: %w", err)
			}
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	oltID, err := p.CA.Issue(name, pki.RoleOLT)
	if err != nil {
		return nil, fmt.Errorf("olt identity: %w", err)
	}
	olt, err := pon.NewOLT(name, p.Config.PONMode, p.CA, oltID)
	if err != nil {
		return nil, fmt.Errorf("olt: %w", err)
	}

	var monitor *fim.Monitor
	if p.Config.FIMEnabled {
		monitor, err = fim.NewMonitor(h, nodeTPM, fim.Config{
			WatchPrefixes:   []string{"/etc/", "/usr/", "/boot/", "/opt/"},
			MutablePrefixes: []string{"/var/log/", "/var/lib/genio/"},
		})
		if err != nil {
			return nil, fmt.Errorf("fim: %w", err)
		}
		if err := monitor.Init(); err != nil {
			return nil, fmt.Errorf("fim baseline: %w", err)
		}
	}

	node := &EdgeNode{
		Name: name, Host: h, TPM: nodeTPM, Firmware: fw, Volume: vol,
		OLT: olt, FIM: monitor, Chain: chain, Attested: attested, ManualUnlock: manual,
	}
	p.nodeMu.Lock()
	p.nodes[name] = node
	p.nodeMu.Unlock()
	// A recovered cluster already holds this member's placements; re-running
	// the provisioning pipeline (re-attestation, fresh identity) must not
	// re-register it as an empty node and orphan them.
	if !target.HasNode(name) {
		target.AddNode(name, capacity)
	}
	return node, nil
}

// Node returns a provisioned edge node. Unknown names yield a typed
// *orchestrator.NodeNotFoundError wrapping ErrNoNode.
func (p *Platform) Node(name string) (*EdgeNode, error) {
	p.nodeMu.RLock()
	defer p.nodeMu.RUnlock()
	n, ok := p.nodes[name]
	if !ok {
		return nil, &orchestrator.NodeNotFoundError{Node: name, Err: ErrNoNode}
	}
	return n, nil
}

// AttachONU issues a far-edge device identity (when the PON mode requires
// it) and activates the ONU on the named OLT. Context-free compatibility
// wrapper over AttachONUContext.
func (p *Platform) AttachONU(nodeName, serial string) (*pon.ONU, error) {
	return p.AttachONUContext(context.Background(), nodeName, serial)
}

// AttachONUContext is AttachONU with cancellation: the context is checked
// before identity issuance and before activation.
func (p *Platform) AttachONUContext(ctx context.Context, nodeName, serial string) (*pon.ONU, error) {
	if p.closed.Load() {
		return nil, &ClosedError{Op: "attach-onu"}
	}
	node, err := p.Node(nodeName)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var id *pki.Identity
	if p.Config.PONMode == pon.ModeAuthenticated {
		id, err = p.CA.Issue(serial, pki.RoleONU)
		if err != nil {
			return nil, fmt.Errorf("onu identity: %w", err)
		}
	}
	onu := pon.NewONU(serial, id)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := node.OLT.Activate(onu); err != nil {
		p.recordIncident(Incident{Source: "pon", Detail: fmt.Sprintf("onu %s activation: %v", serial, err), Blocked: true})
		return nil, err
	}
	return onu, nil
}

// DeployContext admits a workload through the pipeline. The sandbox
// needs no per-workload step: its baseline confines every workload's
// runtime events when M17 is enabled. It honours ctx:
// cancellation or deadline expiry aborts the in-flight admission chain
// without placing the workload, recording an incident, or warming the
// verdict cache, and returns a *orchestrator.CancelledError. Rejections
// are typed (see the orchestrator error taxonomy) and counted on the
// deploy.rejected metric; cancellations count on deploy.cancelled. For
// an observable deployment with a lifecycle, use DeployAsync.
func (p *Platform) DeployContext(ctx context.Context, subject string, spec orchestrator.WorkloadSpec) (*orchestrator.Workload, error) {
	return p.deployObserved(ctx, subject, spec, nil)
}

// deployObserved is the shared deploy body: DeployContext passes a nil
// observer, a Deployment wires its lifecycle publisher in. The returned
// *Workload is the commit-time copy, never the live cluster record.
func (p *Platform) deployObserved(ctx context.Context, subject string, spec orchestrator.WorkloadSpec, observe func(orchestrator.DeployStage)) (*orchestrator.Workload, error) {
	if p.closed.Load() {
		return nil, &ClosedError{Op: "deploy"}
	}
	if p.Config.TenantQuotas {
		// A default quota per tenant when none was set explicitly. Quotas
		// are per-cluster, so federated platforms seed every member.
		for _, c := range p.allClusters() {
			c.EnsureQuota(spec.Tenant, orchestrator.Resources{CPUMilli: 2000, MemoryMB: 4096})
		}
	}
	var (
		w   *orchestrator.Workload
		err error
	)
	switch {
	case p.Federation != nil:
		w, _, err = p.Federation.DeployObserved(ctx, subject, spec, observe)
	case spec.Region != "":
		// A region constraint on a non-federated platform can never be
		// satisfied: there are no regions to match.
		err = &federation.FederationCapacityError{
			Workload: spec.Name, Tenant: spec.Tenant, Region: spec.Region,
		}
	default:
		w, err = p.Cluster.DeployObserved(ctx, subject, spec, observe)
	}
	if err != nil {
		p.recordAdmissionIncidents(spec, err)
		if errors.Is(err, orchestrator.ErrCancelled) {
			p.publishMetric("deploy.cancelled", 1, spec.Tenant)
		} else {
			p.publishMetric("deploy.rejected", 1, spec.Tenant)
		}
		return nil, err
	}
	p.publishMetric("deploy.admitted", 1, spec.Tenant)
	return w, nil
}

// ObserveRuntime feeds a workload's event stream through enforcement (M17)
// and detection (M18) per the configuration, recording incidents. It
// returns how many events actually executed (enforcement truncates).
// Enforcement applies the sandbox baseline to every event, whether or
// not its workload was ever placed.
func (p *Platform) ObserveRuntime(evs []trace.Event) int {
	executed := evs
	if p.Config.SandboxEnabled {
		verdicts := p.Enforcer.Process(evs)
		executed = executed[:len(verdicts)]
		for _, v := range verdicts {
			if v.Action == sandbox.ActionBlock {
				p.recordIncident(Incident{Source: "sandbox", Workload: v.Event.Workload,
					Detail: fmt.Sprintf("blocked %s %s", v.Event.Type, v.Event.Target), Blocked: true})
			}
		}
	}
	if p.Config.RuntimeMonitoring {
		// Alerts leave on the spine's falco.alert topic (raw detections
		// for subscribers, keyed by workload), then each becomes one
		// incident (the paper's notification surface). Publishes after
		// Close are dropped; the incidents still join the ledger.
		alerts := p.Detector.ConsumeAll(executed)
		for _, a := range alerts {
			_ = p.spine.Publish(events.Event{
				Topic: events.TopicFalcoAlert, Key: a.Event.Workload, AtMs: a.AtMs, Payload: a,
			})
		}
		for _, a := range alerts {
			p.recordIncident(Incident{Source: "falco", Workload: a.Event.Workload,
				Detail: a.Output, Blocked: false})
		}
	}
	// One runtime.events metric per workload present in the batch, so
	// per-workload volume aggregation stays correct for mixed streams.
	if len(executed) > 0 {
		perWorkload := make(map[string]int)
		for _, ev := range executed {
			perWorkload[ev.Workload]++
		}
		for wl, n := range perWorkload {
			p.publishMetric("runtime.events", float64(n), wl)
		}
	}
	return len(executed)
}

// RecordIncident appends to the platform incident log and publishes it
// on the spine's incident topic. The platform's own pipeline uses it
// internally; external detectors integrating with a deployment may feed
// their findings in the same way.
func (p *Platform) RecordIncident(i Incident) {
	p.recordIncident(i)
}

// recordIncident assigns the Seq, appends the WAL record and appends to
// the ledger under incMu, then publishes outside it, so a stalled
// subscriber never holds up a ledger read. After Close the publish
// fails and is dropped: the incident is in the ledger either way.
func (p *Platform) recordIncident(i Incident) {
	if p.now != nil && i.AtMs == 0 {
		i.AtMs = p.now()
	}
	var err error
	p.incMu.Lock()
	p.incSeq++
	i.Seq = p.incSeq
	if p.store != nil {
		rec := i
		err = p.store.Append(persist.Record{Kind: persist.KindIncident, Incident: &rec})
	}
	p.incidents = append(p.incidents, i)
	p.incCounts[i.Source]++
	p.incMu.Unlock()
	if p.store != nil {
		if err != nil {
			p.noteStoreFailure(err)
		} else {
			p.noteMutation()
		}
	}
	_ = p.spine.Publish(events.Event{
		Topic: events.TopicIncident, Key: incidentKey(i), AtMs: i.AtMs, Payload: i,
	})
}

// Flush blocks until every event published before the call is delivered
// to every subscriber. The incident ledger needs no Flush: a recorded
// incident is readable through Incidents as soon as the record returns.
func (p *Platform) Flush() {
	p.spine.Flush()
}

// FlushContext is Flush with bounded waiting: a done ctx abandons the
// wait and returns its error (delivery keeps progressing in the
// background — nothing is lost, the caller just stops waiting).
func (p *Platform) FlushContext(ctx context.Context) error {
	return p.spine.FlushContext(ctx)
}

// Close drains the event spine and stops its delivery goroutine. It is
// idempotent and safe to call concurrently (every call blocks until the
// drain completes), and may interleave freely with Flush and
// RecordIncident. After Close the control plane refuses new work with a
// typed *ClosedError (DeployContext, DeployAsync, AddEdgeNode, AttachONU) while
// telemetry degrades gracefully: late incidents still join the ledger
// (unpublished), PublishEvent returns events.ErrClosed.
func (p *Platform) Close() {
	p.closeSpine()
	// Graceful shutdown: final compacted snapshot, then release the store.
	// (Crash is the flush-only variant.)
	p.closeStore(true)
}

// closeSpine refuses new control-plane work, drains the spine, then
// closes Done, which ends every watch stream: every caller blocks until
// the drain completes, the first one closes done.
func (p *Platform) closeSpine() {
	first := p.closed.CompareAndSwap(false, true)
	p.spine.Close()
	if first {
		close(p.done)
	}
}

// Done returns a channel that is closed once the platform has closed
// (Close or Crash) and its event spine has drained: by then every event
// published before the close has reached every subscriber, so a
// subscriber that stops on Done has seen all it ever will.
func (p *Platform) Done() <-chan struct{} { return p.done }

// ClosedError reports a control-plane operation on a closed platform.
// Unwrap exposes events.ErrClosed, so errors.Is(err, events.ErrClosed)
// identifies the class.
type ClosedError struct {
	// Op names the refused operation (deploy | add-edge-node | attach-onu
	// | watch).
	Op string
}

// Error names the refused operation.
func (e *ClosedError) Error() string { return "core: platform closed: " + e.Op }

// Unwrap exposes the spine's closed sentinel.
func (e *ClosedError) Unwrap() error { return events.ErrClosed }

// Incidents returns a copy of the incident ledger in Seq order.
func (p *Platform) Incidents() []Incident {
	p.incMu.RLock()
	defer p.incMu.RUnlock()
	return append([]Incident(nil), p.incidents...)
}

// IncidentCounts tallies incidents by source.
func (p *Platform) IncidentCounts() map[string]int {
	p.incMu.RLock()
	defer p.incMu.RUnlock()
	out := make(map[string]int, len(p.incCounts))
	for k, c := range p.incCounts {
		out[k] = c
	}
	return out
}
