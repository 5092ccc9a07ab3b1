// Package sim is GENIO's deterministic scenario-simulation and
// fault-injection engine: it drives a real core.Platform — nothing is
// mocked — through scripted and seeded-random fault campaigns (node
// churn, admission floods, failover storms, registry tampering, scanner
// slowdowns, incident storms) on a virtual clock, and evaluates
// dependability invariants after every step.
//
// Determinism is the contract: all randomness flows from one seeded
// *rand.Rand, all time from one virtual Clock, and every run of
// (scenario, seed) produces a byte-identical JSON report. That makes a
// failing campaign a bug report you can replay: `genio-sim -campaign
// failover-storm -seed 7` reproduces the exact run.
package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"

	"genio/api/client"
	"genio/api/server"
	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/orchestrator"
	"genio/internal/orchestrator/warmpool"
	"genio/internal/persist"
	"genio/internal/pki"
	"genio/internal/rbac"
)

// Subject is the control-plane identity the simulator deploys as; it is
// bound to a wildcard role so RBAC-enabled postures admit scripted
// traffic.
const Subject = "sim-ops"

// PublisherName is the trusted publisher the simulator signs images as.
const PublisherName = "acme"

// Image refs seeded into every simulated registry (see the container
// fixtures): a clean signed image, a signed image the SAST gate rejects
// (hardcoded credentials), a signed image with an exploitable critical
// dependency, a signed image carrying malware, and an unsigned image.
const (
	CleanImageRef       = "acme/analytics:2.0.1"
	SASTFlaggedImageRef = "acme/iot-gateway:1.4.2"
	VulnImageRef        = "acme/ml-inference:0.9.0"
	MalwareImageRef     = "freestuff/optimizer:latest"
	UnsignedImageRef    = "freestuff/log-shipper:3.1"
)

// Engine runs scenarios and checks invariants.
type Engine struct {
	invariants []Invariant
	firehose   io.Writer
}

// NewEngine creates an engine with the given invariant set (nil = the
// DefaultInvariants).
func NewEngine(invariants []Invariant) *Engine {
	if invariants == nil {
		invariants = DefaultInvariants()
	}
	return &Engine{invariants: invariants}
}

// SetFirehose streams every spine event of subsequent runs to w as JSON
// lines (one event per line). The publish order of concurrent producers
// is scheduler-dependent, so the firehose is an observation stream, not
// part of the byte-identical replay contract — reports stay
// deterministic with or without it.
func (e *Engine) SetFirehose(w io.Writer) {
	e.firehose = w
}

// Run executes the scenario against a freshly built platform and returns
// the deterministic report. The error is reserved for harness failures
// (platform construction); fault outcomes and invariant violations are
// data, reported not returned.
func (e *Engine) Run(sc Scenario) (*Report, error) {
	clock := NewClock(0)
	w := &World{
		Clock:         clock,
		Rand:          rand.New(rand.NewSource(sc.Seed)),
		Live:          make(map[string]bool),
		Cordoned:      make(map[string]int64),
		policies:      make(map[string]string),
		Quotas:        make(map[string]orchestrator.Resources),
		verdicts:      make(map[string]string),
		incidentsOwed: make(map[string]int),
		offeredEvents: make(map[string]uint64),
		cancelTargets: make(map[string]bool),
		cancelled:     make(map[string]bool),
		asyncDone:     make(map[string]bool),
		terminalSeen:  make(map[string]int),
	}
	if sc.Persist {
		if sc.Wire {
			return nil, fmt.Errorf("sim: persistent scenarios cannot be wired (the HTTP harness binds to one platform instance)")
		}
		if len(sc.Federation) > 0 {
			return nil, fmt.Errorf("sim: federated scenarios cannot be persistent (membership is boot config — a rebuild would resurrect evacuated members)")
		}
		// The data directory is harness plumbing: a fresh temp dir per
		// run, never surfaced in the report, removed afterwards. The
		// KillRestart step reopens it across the simulated crash.
		dir, err := os.MkdirTemp("", "genio-sim-")
		if err != nil {
			return nil, fmt.Errorf("sim: data dir: %w", err)
		}
		defer os.RemoveAll(dir)
		w.persistDir = dir
	}
	build := func() error { return e.buildPlatform(sc, clock, w) }
	if err := build(); err != nil {
		return nil, err
	}
	defer func() { w.Platform.Close() }()
	if sc.Persist {
		w.rebuild = build
	}
	if sc.Wire {
		// Host the same platform behind the HTTP control plane and hand
		// the world an authenticated client: Wire* steps then cross the
		// full encode→HTTP→decode stack on every deployment. The listener
		// and identity are harness plumbing — nothing about them reaches
		// the report, so the replay contract is untouched.
		url, stop, err := server.New(w.Platform, server.Options{CA: w.Platform.CA}).ServeLoopback()
		if err != nil {
			return nil, fmt.Errorf("sim: wire listener: %w", err)
		}
		defer stop()
		id, err := w.Platform.CA.Issue(Subject, pki.RoleService)
		if err != nil {
			return nil, fmt.Errorf("sim: wire identity: %w", err)
		}
		w.wire = client.NewHTTP(url, client.WithIdentity(id))
		defer w.wire.Close()
	}

	rep := &Report{
		Scenario: sc.Name,
		Seed:     sc.Seed,
		Posture:  postureName(sc.Config),
		Passed:   true,
	}
	for _, inv := range e.invariants {
		rep.Invariants = append(rep.Invariants, inv.Name)
	}

	for i, step := range sc.Steps {
		out := step.Run(w)
		w.sampleWarm()
		sr := StepReport{
			Index:  i,
			Name:   step.Name,
			AtMs:   clock.NowMs(),
			Status: out.Status,
			Detail: out.Detail,
		}
		for _, inv := range e.invariants {
			for _, v := range inv.Check(w) {
				sr.Violations = append(sr.Violations, inv.Name+": "+v)
			}
		}
		// Verdict flips observed by the deploy injectors must surface even
		// under a custom invariant set that omits AdmissionDeterminism
		// (whose Check drains them first when present).
		for _, v := range w.violations {
			sr.Violations = append(sr.Violations, "admission-determinism: "+v)
		}
		w.violations = nil
		rep.Violations += len(sr.Violations)
		if len(sr.Violations) > 0 {
			rep.Passed = false
		}
		rep.Steps = append(rep.Steps, sr)
	}

	w.Platform.Flush()
	// Fold counters and inventory across every member cluster — identical
	// to the pre-federation numbers when only the default cluster exists
	// (clusters come back sorted by name, so the node list stays
	// deterministic).
	var admitted, rejected, workloads int
	liveNodes := []string{}
	for _, c := range w.Clusters() {
		a, r := c.Counters()
		admitted += a
		rejected += r
		liveNodes = append(liveNodes, c.Nodes()...)
		workloads += len(c.Workloads())
	}
	// Per-topic published tallies: deterministic because the spine never
	// drops an event, so they join the replay contract. In a
	// persistent scenario these (and the admitted/rejected counters) cover
	// the final platform incarnation only — spine counters are process
	// state, deliberately not persisted — which stays deterministic
	// because the crash point is itself scripted.
	eventCounts := make(map[string]uint64)
	for topic, ts := range w.Platform.Metrics() {
		if ts.Published > 0 {
			eventCounts[string(topic)] = ts.Published
		}
	}
	w.sampleWarm()
	rep.Final = FinalState{
		VirtualMs: clock.NowMs(),
		LiveNodes: liveNodes,
		Workloads: workloads,
		Admitted:  admitted,
		Rejected:  rejected,
		Incidents: w.Platform.IncidentCounts(),
		Events:    eventCounts,
	}
	if w.warmTotal != (warmpool.Counters{}) {
		// Cumulative across KillRestart rebuilds (per-incarnation pool
		// counters reset with the platform; the report wants run totals).
		warm := w.warmTotal
		rep.Final.WarmSlots = &warm
	}
	return rep, nil
}

// buildPlatform constructs the platform (persistent scenarios attach a
// WAL store over the world's data directory, recovering whatever it
// holds), installs the engine's witnesses and the cancel gate, and seeds
// the world fixture. It runs once per ordinary scenario and once more
// per KillRestart in persistent ones — everything platform-bound
// (subscriptions, admission hooks, the registry fixture) must be rebuilt
// here, and everything process-independent (the clock, the seeded Rand,
// the world's book-keeping) must NOT be touched.
func (e *Engine) buildPlatform(sc Scenario, clock *Clock, w *World) error {
	opts := []core.Option{core.WithClock(clock.Source())}
	if len(sc.Federation) > 0 {
		members := make([]core.FederationMember, len(sc.Federation))
		for i, m := range sc.Federation {
			members[i] = core.FederationMember{Name: m.Name, Region: m.Region}
		}
		opts = append(opts, core.WithFederation(members...))
	}
	if w.persistDir != "" {
		store, err := persist.OpenWAL(w.persistDir)
		if err != nil {
			return fmt.Errorf("sim: open wal: %w", err)
		}
		// A tight cadence so campaigns exercise snapshot compaction, not
		// just log replay.
		opts = append(opts, core.WithStore(store), core.WithSnapshotEvery(16))
	}
	p, err := core.New(sc.Config, opts...)
	if err != nil {
		return fmt.Errorf("sim: platform: %w", err)
	}
	w.Platform = p
	// Residency pins are boot configuration, like membership: re-applied
	// on every rebuild so a KillRestart cannot silently widen a tenant's
	// placement domain.
	for _, pin := range sc.Pins {
		if err := p.PinTenant(pin.Tenant, pin.Region); err != nil {
			return fmt.Errorf("sim: pin %s=%s: %w", pin.Tenant, pin.Region, err)
		}
	}
	// The invariants watch the platform the way an external consumer
	// would: through a spine subscription, not by polling snapshots.
	if _, err := p.Subscribe("sim-incident-witness", []events.Topic{events.TopicIncident},
		func(b []events.Event) { w.seenIncidents.Add(int64(len(b))) }); err != nil {
		return fmt.Errorf("sim: incident witness: %w", err)
	}
	// The lifecycle witness feeds the exactly-one-terminal-event ledger
	// the cancel-storm invariants audit.
	if _, err := p.Subscribe("sim-lifecycle-witness", []events.Topic{events.TopicDeployLifecycle},
		func(b []events.Event) {
			for _, ev := range b {
				if le, ok := ev.Payload.(core.LifecycleEvent); ok && le.State.Terminal() {
					w.countTerminal(le.Workload)
				}
			}
		}); err != nil {
		return fmt.Errorf("sim: lifecycle witness: %w", err)
	}
	// The cancel gate: deployments armed via markCancelTarget are held
	// open inside the admission chain until their context dies, so a
	// scripted cancellation deterministically lands mid-scan. Unarmed
	// deployments pass straight through.
	p.Cluster.RegisterAdmissionCtx("sim-cancel-gate",
		func(ctx context.Context, spec orchestrator.WorkloadSpec, _ *container.Image) error {
			if !w.isCancelTarget(spec.Name) {
				return nil
			}
			<-ctx.Done()
			return ctx.Err()
		})
	if e.firehose != nil {
		var mu sync.Mutex
		if _, err := p.Subscribe("sim-firehose", nil, func(b []events.Event) {
			mu.Lock()
			defer mu.Unlock()
			for _, ev := range b {
				js, err := json.Marshal(ev)
				if err != nil {
					continue
				}
				fmt.Fprintf(e.firehose, "%s\n", js)
			}
		}); err != nil {
			return fmt.Errorf("sim: firehose: %w", err)
		}
	}
	if err := seedWorld(w); err != nil {
		return fmt.Errorf("sim: seed world: %w", err)
	}
	return nil
}

// seedWorld populates the registry with the fixture image set, signs the
// signed subset, and grants the simulation subject deploy rights. Across
// a KillRestart the publisher is reused: the fixture images are
// content-addressed, so re-pushing the identical set reproduces the
// digests the recovered admission-verdict cache was keyed by.
func seedWorld(w *World) error {
	pub := w.publisher
	if pub == nil {
		var err error
		pub, err = container.NewPublisher(PublisherName)
		if err != nil {
			return err
		}
		w.publisher = pub
	}
	reg := w.Platform.Registry
	reg.TrustPublisher(PublisherName, pub.PublicKey())
	for _, img := range []*container.Image{
		container.AnalyticsImage(),
		container.IoTGatewayImage(),
		container.MLInferenceImage(),
		container.CryptominerImage(),
	} {
		sig := pub.Sign(img)
		reg.Push(img, &sig)
	}
	reg.Push(container.BackdoorImage(), nil) // unsigned: must fail verified pulls

	w.Platform.RBAC.SetRole(rbac.Role{Name: "sim-admin", Permissions: []rbac.Permission{
		{Verb: "*", Resource: "*", Namespace: "*"},
	}})
	return w.Platform.RBAC.Bind(Subject, "sim-admin")
}

func postureName(cfg core.Config) string {
	switch cfg {
	case core.SecureConfig():
		return "secure"
	case core.LegacyConfig():
		return "legacy"
	default:
		return "custom"
	}
}
