// Package attack implements scripted adversaries for every threat of the
// GENIO model (T1–T8) and a campaign runner that executes them against a
// live core.Platform, scoring each attack as blocked, detected, or missed.
//
// The campaign is the measurement instrument for the end-to-end experiment:
// run it against core.LegacyConfig() and core.SecureConfig() and compare
// outcome distributions — the reproduction of the paper's overall claim
// that the layered mitigations close the identified threats.
package attack

import (
	"context"
	"errors"
	"fmt"

	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/host"
	"genio/internal/orchestrator"
	"genio/internal/pon"
	"genio/internal/rbac"
	"genio/internal/trace"
	"genio/internal/vuln"
)

// Outcome classifies what happened to one attack.
type Outcome int

// Outcomes, ordered from best (for the defender) to worst.
const (
	// OutcomeBlocked means the attack was prevented outright.
	OutcomeBlocked Outcome = iota + 1
	// OutcomeDetected means the attack executed but raised an alert.
	OutcomeDetected
	// OutcomeMissed means the attack succeeded silently.
	OutcomeMissed
)

var outcomeNames = map[Outcome]string{
	OutcomeBlocked:  "blocked",
	OutcomeDetected: "detected",
	OutcomeMissed:   "missed",
}

// String names the outcome.
func (o Outcome) String() string {
	if n, ok := outcomeNames[o]; ok {
		return n
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Result is one executed attack.
type Result struct {
	ThreatID string  `json:"threatId"`
	Attack   string  `json:"attack"`
	Outcome  Outcome `json:"outcome"`
	Detail   string  `json:"detail"`
}

// Campaign executes the full adversary playbook against a platform.
type Campaign struct {
	Platform *core.Platform
	// node is the edge node attacks focus on.
	node *core.EdgeNode
}

// NewCampaign prepares a campaign against p, provisioning one edge node
// and publishing the attack images the adversaries use.
func NewCampaign(p *core.Platform) (*Campaign, error) {
	node, err := p.AddEdgeNode("olt-target", orchestrator.Resources{CPUMilli: 16000, MemoryMB: 32768})
	if err != nil {
		return nil, fmt.Errorf("provision target node: %w", err)
	}
	// The adversary publishes images to the public registry. Signed images
	// come from an untrusted publisher — on the secure platform signature
	// verification rejects them at pull time.
	p.Registry.Push(container.CryptominerImage(), nil)
	p.Registry.Push(container.BackdoorImage(), nil)
	// A legitimate, signed vulnerable app is present as the T7 foothold.
	pub, err := container.NewPublisher("acme")
	if err != nil {
		return nil, fmt.Errorf("publisher: %w", err)
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	web := container.AnalyticsImage()
	sig := pub.Sign(web)
	p.Registry.Push(web, &sig)
	return &Campaign{Platform: p, node: node}, nil
}

// Run executes every scripted attack in threat order.
func (c *Campaign) Run() []Result {
	results := []Result{
		c.attackFiberTap(),
		c.attackReplay(),
		c.attackRogueONU(),
		c.attackBinaryTamper(),
		c.attackOMCIForgery(),
		c.attackLegacyService(),
		c.attackKernelCVE(),
		c.attackAnonymousAPI(),
		c.attackMiddlewareCVE(),
		c.attackExploitWebApp(),
		c.attackMaliciousImage(),
		c.attackResourceAbuse(),
		c.attackDBAAbuse(),
	}
	return results
}

// Summary tallies outcomes.
func Summary(results []Result) map[Outcome]int {
	out := make(map[Outcome]int)
	for _, r := range results {
		out[r.Outcome]++
	}
	return out
}

// --- T1: network attacks -----------------------------------------------------

func (c *Campaign) attackFiberTap() Result {
	r := Result{ThreatID: "T1", Attack: "fiber-tap interception"}
	onu, err := c.Platform.AttachONU(c.node.Name, "onu-victim")
	if err != nil {
		r.Outcome = OutcomeBlocked
		r.Detail = fmt.Sprintf("victim ONU could not even activate: %v", err)
		return r
	}
	var captured []pon.XGEMFrame
	c.node.OLT.AttachTap(pon.TapFunc(func(f pon.XGEMFrame) { captured = append(captured, f) }))
	secret := []byte("meter-reading-kwh-4711")
	if err := c.node.OLT.SendDownstream(onu.Port(), secret); err != nil {
		r.Outcome = OutcomeBlocked
		r.Detail = fmt.Sprintf("downstream send failed: %v", err)
		return r
	}
	for _, f := range captured {
		if !f.Encrypted {
			r.Outcome = OutcomeMissed
			r.Detail = "tap captured plaintext payload"
			return r
		}
	}
	r.Outcome = OutcomeBlocked
	r.Detail = "tap sees only AES-GCM ciphertext (M3)"
	return r
}

func (c *Campaign) attackReplay() Result {
	r := Result{ThreatID: "T1", Attack: "downstream replay injection"}
	onu, err := c.Platform.AttachONU(c.node.Name, "onu-replay-victim")
	if err != nil {
		r.Outcome = OutcomeBlocked
		r.Detail = fmt.Sprintf("victim activation failed: %v", err)
		return r
	}
	var captured []pon.XGEMFrame
	c.node.OLT.AttachTap(pon.TapFunc(func(f pon.XGEMFrame) { captured = append(captured, f) }))
	if err := c.node.OLT.SendDownstream(onu.Port(), []byte("cmd: open-relay")); err != nil {
		r.Outcome = OutcomeBlocked
		r.Detail = err.Error()
		return r
	}
	before := len(onu.Received())
	errs := c.node.OLT.InjectDownstream(captured[len(captured)-1])
	if len(errs) > 0 && errors.Is(errs[0], pon.ErrReplay) {
		r.Outcome = OutcomeBlocked
		r.Detail = "replayed frame rejected by sequence check (M3)"
		return r
	}
	if len(onu.Received()) > before {
		r.Outcome = OutcomeMissed
		r.Detail = "replayed command processed twice"
		return r
	}
	r.Outcome = OutcomeBlocked
	r.Detail = "replay had no effect"
	return r
}

func (c *Campaign) attackRogueONU() Result {
	r := Result{ThreatID: "T1", Attack: "rogue ONU impersonation"}
	rogue := pon.NewONU("onu-rogue", nil)
	err := c.node.OLT.Activate(rogue)
	if err != nil {
		r.Outcome = OutcomeBlocked
		r.Detail = fmt.Sprintf("activation rejected: %v (M4)", err)
		return r
	}
	r.Outcome = OutcomeMissed
	r.Detail = "rogue device joined the PON without credentials"
	return r
}

// --- T2: code tampering --------------------------------------------------------

func (c *Campaign) attackBinaryTamper() Result {
	r := Result{ThreatID: "T2", Attack: "system binary replacement"}
	c.node.Host.WriteFile(host.File{
		Path: "/usr/sbin/sshd", Mode: 0o755, Owner: "root",
		Content: []byte("sshd-with-backdoor"),
	})
	if c.node.FIM == nil {
		r.Outcome = OutcomeMissed
		r.Detail = "no integrity monitoring; backdoor persists silently"
		return r
	}
	alerts, err := c.node.FIM.Scan()
	if err != nil {
		r.Outcome = OutcomeMissed
		r.Detail = fmt.Sprintf("FIM scan failed: %v", err)
		return r
	}
	for _, a := range alerts {
		if a.Path == "/usr/sbin/sshd" && !a.Suppressed {
			r.Outcome = OutcomeDetected
			r.Detail = "Tripwire baseline diff raised an alert (M7)"
			return r
		}
	}
	r.Outcome = OutcomeMissed
	r.Detail = "tamper not visible in FIM scan"
	return r
}

func (c *Campaign) attackOMCIForgery() Result {
	r := Result{ThreatID: "T2", Attack: "forged firmware-update via OMCI"}
	onu, err := c.Platform.AttachONU(c.node.Name, "onu-omci-victim")
	if err != nil {
		r.Outcome = OutcomeBlocked
		r.Detail = fmt.Sprintf("victim activation failed: %v", err)
		return r
	}
	err = c.node.OLT.InjectOMCI(pon.OMCIMessage{
		Action: pon.OMCIFirmwareUpdate, Serial: onu.Serial,
		Arg: "http://203.0.113.7/fw-implant.bin", Seq: 999,
	})
	if err != nil {
		r.Outcome = OutcomeBlocked
		r.Detail = fmt.Sprintf("management channel rejected forgery: %v", err)
		return r
	}
	r.Outcome = OutcomeMissed
	r.Detail = "unsigned firmware-update command executed on the ONU"
	return r
}

// --- T3: privilege abuse (infra) ------------------------------------------------

func (c *Campaign) attackLegacyService() Result {
	r := Result{ThreatID: "T3", Attack: "login via legacy cleartext service"}
	svc, ok := c.node.Host.Service("telnetd")
	if ok && svc.Enabled {
		r.Outcome = OutcomeMissed
		r.Detail = "telnetd open; password brute-force path available"
		return r
	}
	r.Outcome = OutcomeBlocked
	r.Detail = "legacy services stripped by hardening (M1)"
	return r
}

// --- T4: software vulnerabilities (infra) ----------------------------------------

func (c *Campaign) attackKernelCVE() Result {
	r := Result{ThreatID: "T4", Attack: "kernel privilege-escalation exploit"}
	db := vuln.DefaultDatabase()
	version, _ := c.node.Host.PackageVersion("linux-image-onl")
	matches := db.Match("linux-image-onl", version)
	exploitable := false
	for _, m := range matches {
		if m.Exploitable {
			exploitable = true
		}
	}
	if !exploitable {
		r.Outcome = OutcomeBlocked
		r.Detail = "no exploitable kernel CVE at installed version"
		return r
	}
	if c.Platform.Config.VulnManagement {
		// M8 found the CVE; the patch cycle applied the fixed kernel
		// before the adversary's exploitation window.
		c.node.Host.InstallPackage(host.Package{Name: "linux-image-onl", Version: "4.19.300", Path: "/boot"})
		r.Outcome = OutcomeBlocked
		r.Detail = "CVE found by scheduled scan and patched (M8)"
		return r
	}
	r.Outcome = OutcomeMissed
	r.Detail = "unpatched exploitable kernel CVE; host compromised"
	return r
}

// --- T5: privilege abuse (middleware) ---------------------------------------------

func (c *Campaign) attackAnonymousAPI() Result {
	r := Result{ThreatID: "T5", Attack: "anonymous workload creation cross-tenant"}
	_, err := c.Platform.DeployContext(context.Background(), "anonymous-attacker", orchestrator.WorkloadSpec{
		Name: "implant", Tenant: "victim-tenant", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 100, MemoryMB: 128},
	})
	var unauth *orchestrator.UnauthorizedError
	if errors.As(err, &unauth) {
		r.Outcome = OutcomeBlocked
		r.Detail = fmt.Sprintf("RBAC denied %s in tenant %s (M10)", unauth.Subject, unauth.Tenant)
		return r
	}
	if err != nil {
		r.Outcome = OutcomeBlocked
		r.Detail = fmt.Sprintf("deployment failed: %v", err)
		return r
	}
	r.Outcome = OutcomeMissed
	r.Detail = "anonymous subject deployed into a foreign tenant"
	return r
}

// --- T6: software vulnerabilities (middleware) --------------------------------------

func (c *Campaign) attackMiddlewareCVE() Result {
	r := Result{ThreatID: "T6", Attack: "exploit ONOS REST API auth bypass"}
	db := vuln.DefaultDatabase()
	cve, _ := db.Get("CVE-2023-1007") // onos, no upstream fix
	if !c.Platform.Config.VulnManagement {
		r.Outcome = OutcomeMissed
		r.Detail = "no middleware vulnerability tracking; API exposed"
		return r
	}
	tracker := vuln.NewTracker(vuln.DefaultFeeds(), 5)
	exp := tracker.Track(cve)
	if exp.NeverVisible {
		r.Outcome = OutcomeMissed
		r.Detail = "advisory never surfaced through any feed"
		return r
	}
	// The advisory was found (via NVD fallback) and the endpoint fenced
	// off; the exploit is detected-then-closed rather than silent.
	r.Outcome = OutcomeDetected
	r.Detail = fmt.Sprintf("advisory surfaced via %s after %d days; endpoint restricted (M12)",
		exp.BestFeed, exp.WindowDays)
	return r
}

// --- T7: vulnerable applications ------------------------------------------------

func (c *Campaign) attackExploitWebApp() Result {
	r := Result{ThreatID: "T7", Attack: "web app exploited into reverse shell"}
	// The tenant legitimately runs a signed app; the adversary exploits it
	// at runtime.
	if c.Platform.Config.RBACEnabled {
		c.allowTenant("acme-ci", "acme")
	}
	_, err := c.Platform.DeployContext(context.Background(), "acme-ci", orchestrator.WorkloadSpec{
		Name: "victim-web", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 200, MemoryMB: 256},
	})
	if err != nil {
		r.Outcome = OutcomeBlocked
		r.Detail = fmt.Sprintf("victim app not deployable: %v", err)
		return r
	}
	events := trace.ReverseShellTrace("victim-web", "acme")
	before := len(c.Platform.Incidents())
	executed := c.Platform.ObserveRuntime(events)
	incidents := c.Platform.Incidents()[before:]
	for _, i := range incidents {
		if i.Blocked {
			r.Outcome = OutcomeBlocked
			r.Detail = fmt.Sprintf("sandbox killed the shell after %d/%d events (M17)", executed, len(events))
			return r
		}
	}
	if len(incidents) > 0 {
		r.Outcome = OutcomeDetected
		r.Detail = "Falco alerted on post-exploitation behaviour (M18)"
		return r
	}
	r.Outcome = OutcomeMissed
	r.Detail = "reverse shell ran to completion unobserved"
	return r
}

// --- T8: malicious applications --------------------------------------------------

func (c *Campaign) attackMaliciousImage() Result {
	r := Result{ThreatID: "T8", Attack: "cryptominer image with CAP_SYS_ADMIN"}
	if c.Platform.Config.RBACEnabled {
		c.allowTenant("shady-ci", "shady")
	}
	_, err := c.Platform.DeployContext(context.Background(), "shady-ci", orchestrator.WorkloadSpec{
		Name: "optimizer", Tenant: "shady", ImageRef: "freestuff/optimizer:latest",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	})
	if err != nil {
		r.Outcome = OutcomeBlocked
		// The typed taxonomy names the gate: a scanner verdict reports
		// which admission controller caught the image, a pull error means
		// the supply chain rejected it before any scan ran.
		var adm *orchestrator.AdmissionError
		var pull *orchestrator.ImagePullError
		switch {
		case errors.As(err, &adm) && len(adm.Rejections()) > 0:
			v := adm.Rejections()[0]
			r.Detail = fmt.Sprintf("blocked by %s: %s", v.Scanner, v.Detail)
		case errors.As(err, &pull):
			r.Detail = fmt.Sprintf("blocked at pull: %v", pull.Err)
		default:
			r.Detail = fmt.Sprintf("rejected before scheduling: %v", err)
		}
		return r
	}
	// Admitted: the miner attempts a container escape at runtime.
	events := trace.ContainerEscapeTrace("optimizer", "shady")
	before := len(c.Platform.Incidents())
	c.Platform.ObserveRuntime(events)
	incidents := c.Platform.Incidents()[before:]
	for _, i := range incidents {
		if i.Blocked {
			r.Outcome = OutcomeBlocked
			r.Detail = "escape blocked at CAP_SYS_ADMIN use (M17)"
			return r
		}
	}
	if len(incidents) > 0 {
		r.Outcome = OutcomeDetected
		r.Detail = "escape behaviour alerted by runtime monitoring (M18)"
		return r
	}
	r.Outcome = OutcomeMissed
	r.Detail = "miner escaped the container unobserved"
	return r
}

func (c *Campaign) attackResourceAbuse() Result {
	r := Result{ThreatID: "T8", Attack: "tenant resource monopolization"}
	if c.Platform.Config.RBACEnabled {
		c.allowTenant("greedy-ci", "greedy")
	}
	deployed := 0
	for i := 0; i < 16; i++ {
		_, err := c.Platform.DeployContext(context.Background(), "greedy-ci", orchestrator.WorkloadSpec{
			Name: fmt.Sprintf("hog-%02d", i), Tenant: "greedy", ImageRef: "acme/analytics:2.0.1",
			Isolation: orchestrator.IsolationSoft,
			Resources: orchestrator.Resources{CPUMilli: 900, MemoryMB: 1800},
		})
		if err != nil {
			var quota *orchestrator.QuotaError
			if errors.As(err, &quota) {
				r.Outcome = OutcomeBlocked
				r.Detail = fmt.Sprintf("quota stopped the tenant after %d workloads at cpu=%dm/%dm (T8 counter)",
					deployed, quota.Used.CPUMilli, quota.Quota.CPUMilli)
				return r
			}
			r.Outcome = OutcomeBlocked
			r.Detail = fmt.Sprintf("deployment stopped: %v", err)
			return r
		}
		deployed++
	}
	r.Outcome = OutcomeMissed
	r.Detail = fmt.Sprintf("tenant consumed %d workloads of cluster capacity unchecked", deployed)
	return r
}

// attackDBAAbuse is the physical-layer variant of resource monopolization:
// a compromised ONU inflates its DBRu queue reports to grab the shared
// upstream wavelength. The SLA grant cap (applied when the platform
// enforces tenant quotas) restores fairness.
func (c *Campaign) attackDBAAbuse() Result {
	r := Result{ThreatID: "T8", Attack: "upstream DBA report inflation"}
	serials := []string{"onu-dba-0", "onu-dba-1", "onu-dba-2", "onu-dba-3"}
	onus := make([]*pon.ONU, 0, len(serials))
	for _, s := range serials {
		u, err := c.Platform.AttachONU(c.node.Name, s)
		if err != nil {
			r.Outcome = OutcomeBlocked
			r.Detail = fmt.Sprintf("attacker ONUs could not activate: %v", err)
			return r
		}
		onus = append(onus, u)
	}
	for _, u := range onus {
		for i := 0; i < 4; i++ {
			if err := u.QueueUpstream(make([]byte, 100)); err != nil {
				r.Outcome = OutcomeBlocked
				r.Detail = err.Error()
				return r
			}
		}
	}
	onus[0].SetReportInflation(50)
	cfg := pon.DBAConfig{CycleBytes: 800}
	if c.Platform.Config.TenantQuotas {
		cfg.PerONUCap = 200 // the SLA cap shipped with quota enforcement
	}
	res, err := c.node.OLT.RunDBACycle(cfg)
	if err != nil {
		r.Outcome = OutcomeBlocked
		r.Detail = fmt.Sprintf("cycle aborted: %v", err)
		return r
	}
	// Fairness is judged over ONUs with actual demand; idle ONUs from
	// earlier attacks legitimately receive zero grant.
	var active []pon.Grant
	for _, g := range res.Grants {
		if g.Reported > 0 {
			active = append(active, g)
		}
	}
	fairness := pon.FairnessIndex(active)
	if fairness >= 0.9 {
		r.Outcome = OutcomeBlocked
		r.Detail = fmt.Sprintf("grant cap held fairness at %.2f despite 50x inflated reports", fairness)
		return r
	}
	r.Outcome = OutcomeMissed
	r.Detail = fmt.Sprintf("greedy ONU skewed allocation (fairness %.2f); neighbours starved", fairness)
	return r
}

func (c *Campaign) allowTenant(subject, tenant string) {
	c.Platform.RBAC.SetRole(rbac.Role{
		Name: tenant + "-deployer",
		Permissions: []rbac.Permission{
			{Verb: "create", Resource: "workloads", Namespace: tenant},
		},
	})
	_ = c.Platform.RBAC.Bind(subject, tenant+"-deployer")
}
