package experiments

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"genio/internal/container"
	"genio/internal/dast"
	"genio/internal/falco"
	"genio/internal/fim"
	"genio/internal/host"
	"genio/internal/macsec"
	"genio/internal/orchestrator"
	"genio/internal/pki"
	"genio/internal/pon"
	"genio/internal/rbac"
	"genio/internal/sandbox"
	"genio/internal/sast"
	"genio/internal/sca"
	"genio/internal/scap"
	"genio/internal/storage"
	"genio/internal/tpm"
	"genio/internal/trace"
	"genio/internal/updates"
	"genio/internal/vuln"
)

// Lesson1 quantifies the ONL hardening gap: mainstream STIGs degrade to
// manual review on ONL, and hardening converges only after iterative
// adjustment.
func Lesson1() (string, error) {
	var b strings.Builder
	b.WriteString("Lesson 1: ONL lacks formal security guidelines; STIG/SCAP application\n")
	b.WriteString("requires iterative adaptation (paper: 'demanding iterative adjustments')\n\n")

	profiles := []scap.HostProfile{
		scap.SCAPBaselineProfile(), scap.STIGProfile(), scap.KernelHardeningProfile(),
	}
	for _, target := range []struct {
		name string
		h    *host.Host
	}{
		{"onl-debian10 (fresh OLT)", host.NewONLOLT("olt-fresh")},
		{"ubuntu22.04 (mainstream)", host.NewUbuntuServer("ubuntu-ref")},
	} {
		fmt.Fprintf(&b, "%s:\n", target.name)
		for _, p := range profiles {
			rep := scap.EvaluateHost(p, target.h)
			pass, fail, na, manual := rep.Counts()
			fmt.Fprintf(&b, "  %-26s pass=%d fail=%d n/a=%d manual=%d score=%.2f\n",
				p.Name, pass, fail, na, manual, rep.Score())
		}
	}

	// Iterative hardening loop on ONL.
	h := host.NewONLOLT("olt-iter")
	iterations, changes := 0, 0
	for ; iterations < 10; iterations++ {
		failing := 0
		for _, p := range profiles {
			_, f, _, _ := scap.EvaluateHost(p, h).Counts()
			failing += f
		}
		if failing == 0 {
			break
		}
		changes += host.HardenONLOLT(h)
	}
	fmt.Fprintf(&b, "\nhardening ONL to green: %d iteration(s), %d discrete changes\n", iterations, changes)

	// Residual manual items after hardening (the ONL adaptation debt).
	manualTotal := 0
	for _, p := range profiles {
		_, _, _, m := scap.EvaluateHost(p, h).Counts()
		manualTotal += m
	}
	fmt.Fprintf(&b, "residual manual-review items on hardened ONL: %d (0 expected on ubuntu)\n", manualTotal)
	return b.String(), nil
}

// Lesson2 measures the engineering cost of encryption: MACsec frame
// overhead, PON payload encryption overhead, and certificate-based
// onboarding cost across heterogeneous nodes.
func Lesson2() (string, error) {
	var b strings.Builder
	b.WriteString("Lesson 2: encryption imposes engineering effort and compute cost\n")
	b.WriteString("(paper: overhead must be paid; certificate management is the hard part)\n\n")

	const frames = 20000
	payload := make([]byte, 1024)

	// MACsec on/off throughput.
	a, z := macsec.NewSecY("olt"), macsec.NewSecY("core")
	var key [32]byte
	key[0] = 1
	if _, err := macsec.NewChannel(a, z, key, 64); err != nil {
		return "", err
	}
	start := time.Now()
	for i := 0; i < frames; i++ {
		pf, err := a.Protect(0, macsec.Frame{Payload: payload})
		if err != nil {
			return "", err
		}
		if _, err := z.Validate(pf); err != nil {
			return "", err
		}
	}
	encElapsed := time.Since(start)

	start = time.Now()
	sink := 0
	for i := 0; i < frames; i++ {
		cp := make([]byte, len(payload))
		sink += copy(cp, payload)
	}
	plainElapsed := time.Since(start)
	_ = sink

	fmt.Fprintf(&b, "MACsec protect+validate: %d frames x 1KiB in %v (%.0f ns/frame)\n",
		frames, encElapsed.Round(time.Millisecond), float64(encElapsed.Nanoseconds())/frames)
	fmt.Fprintf(&b, "plaintext frame copy:    %d frames x 1KiB in %v (%.0f ns/frame)\n",
		frames, plainElapsed.Round(time.Millisecond), float64(plainElapsed.Nanoseconds())/frames)
	ratio := float64(encElapsed.Nanoseconds()) / float64(plainElapsed.Nanoseconds()+1)
	fmt.Fprintf(&b, "overhead factor: %.1fx (bounded, per paper expectation)\n\n", ratio)

	// Onboarding handshake cost across heterogeneous fleet.
	ca, err := pki.NewCA("genio-root")
	if err != nil {
		return "", err
	}
	oltID, err := ca.Issue("olt-01", pki.RoleOLT)
	if err != nil {
		return "", err
	}
	olt, err := pon.NewOLT("olt-01", pon.ModeAuthenticated, ca, oltID)
	if err != nil {
		return "", err
	}
	const onus = 64
	start = time.Now()
	for i := 0; i < onus; i++ {
		id, err := ca.Issue(fmt.Sprintf("onu-%03d", i), pki.RoleONU)
		if err != nil {
			return "", err
		}
		if err := olt.Activate(pon.NewONU(fmt.Sprintf("onu-%03d", i), id)); err != nil {
			return "", err
		}
	}
	authElapsed := time.Since(start)

	plainOLT, err := pon.NewOLT("olt-02", pon.ModePlaintext, nil, nil)
	if err != nil {
		return "", err
	}
	start = time.Now()
	for i := 0; i < onus; i++ {
		if err := plainOLT.Activate(pon.NewONU(fmt.Sprintf("onu-%03d", i), nil)); err != nil {
			return "", err
		}
	}
	plainActivate := time.Since(start)
	fmt.Fprintf(&b, "ONU activation x%d: authenticated=%v (cert issue + ECDHE handshake each)\n",
		onus, authElapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "                    plaintext=%v (no identity management)\n",
		plainActivate.Round(time.Microsecond))
	fmt.Fprintf(&b, "certificates issued and tracked for the fleet: %d\n", ca.Issued())

	// Key rotation across all active ports.
	start = time.Now()
	if err := olt.RotateKeys(); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "fleet-wide key rotation (%d ports): %v\n", onus, time.Since(start).Round(time.Microsecond))
	return b.String(), nil
}

// Lesson3 quantifies integrity-protection friction: Clevis unavailability
// forces manual passphrases, and untuned FIM floods operators.
func Lesson3() (string, error) {
	var b strings.Builder
	b.WriteString("Lesson 3: integrity protections meet deployment obstacles on ONL\n")
	b.WriteString("(paper: missing TPM libs force manual passphrase entry; FIM must\n")
	b.WriteString(" separate immutable from mutable resources to avoid misleading alerts)\n\n")

	// Fleet reboot simulation: 10 OLTs, 5 reboots each.
	const nodes, reboots = 10, 5
	for _, env := range []struct {
		name    string
		hasLibs bool
	}{
		{"mainstream distro (tpm2-tss available)", true},
		{"onl-debian10 (Clevis libs unavailable)", false},
	} {
		manualEntries := 0
		for n := 0; n < nodes; n++ {
			t, err := tpm.New()
			if err != nil {
				return "", err
			}
			if _, err := t.Extend(tpm.PCRKernel, "kernel", []byte("good")); err != nil {
				return "", err
			}
			vol, err := storage.CreateVolume(fmt.Sprintf("olt-%02d", n), "site-passphrase")
			if err != nil {
				return "", err
			}
			cfg := storage.ClevisConfig{TPM: t, PCRSelection: []int{tpm.PCRKernel}, HasTPMLibs: env.hasLibs}
			bound := vol.BindTPMSlot("clevis", cfg) == nil
			for r := 0; r < reboots; r++ {
				vol.Lock()
				if bound {
					if err := vol.UnlockTPM("clevis", t); err != nil {
						return "", err
					}
				} else {
					if err := vol.UnlockPassphrase("passphrase", "site-passphrase"); err != nil {
						return "", err
					}
				}
			}
			_, manual := vol.UnlockStats()
			manualEntries += manual
		}
		fmt.Fprintf(&b, "%-42s manual passphrase entries across %d node-reboots: %d\n",
			env.name, nodes*reboots, manualEntries)
	}

	// FIM tuning: benign churn + one real tamper.
	b.WriteString("\nFIM alert precision under benign churn (20 log/state writes + 1 binary tamper):\n")
	for _, variant := range []struct {
		name    string
		mutable []string
	}{
		{"untuned (no mutable-path policy)", nil},
		{"tuned (/var/log, /var/lib/genio mutable)", []string{"/var/log/", "/var/lib/genio/"}},
	} {
		h := host.NewONLOLT("olt-fim")
		t, err := tpm.New()
		if err != nil {
			return "", err
		}
		m, err := fim.NewMonitor(h, t, fim.Config{MutablePrefixes: variant.mutable})
		if err != nil {
			return "", err
		}
		if err := m.Init(); err != nil {
			return "", err
		}
		for i := 0; i < 10; i++ {
			h.WriteFile(host.File{Path: "/var/log/syslog", Mode: 0o640, Owner: "root",
				Content: []byte(fmt.Sprintf("log line %d\n", i))})
			h.WriteFile(host.File{Path: "/var/lib/genio/state.json", Mode: 0o640, Owner: "root",
				Content: []byte(fmt.Sprintf(`{"epoch":%d}`, i))})
		}
		h.WriteFile(host.File{Path: "/usr/sbin/sshd", Mode: 0o755, Owner: "root",
			Content: []byte("backdoored")})
		alerts, err := m.Scan()
		if err != nil {
			return "", err
		}
		raised := fim.Raised(alerts)
		truePositives := 0
		for _, a := range raised {
			if a.Path == "/usr/sbin/sshd" {
				truePositives++
			}
		}
		fmt.Fprintf(&b, "  %-42s raised=%d (true=%d, noise=%d)\n",
			variant.name, len(raised), truePositives, len(raised)-truePositives)
	}
	return b.String(), nil
}

// Lesson4 shows scanning maturity (after path tuning) and the reliability
// of signed updates.
func Lesson4() (string, error) {
	var b strings.Builder
	b.WriteString("Lesson 4: automated scanning integrates smoothly once tuned for\n")
	b.WriteString("non-standard ONL paths; APT GPG signing is reliable and simple\n\n")

	h := host.NewONLOLT("olt-scan")
	db := vuln.DefaultDatabase()
	s := vuln.NewScanner(db)
	before := s.Scan(h)
	s.AddSearchPath("/opt/")
	s.AddSearchPath("/lib/onl")
	after := s.Scan(h)
	fmt.Fprintf(&b, "vuln scan, stock paths:  findings=%d scanned=%d skipped=%d\n",
		len(before.Findings), before.Scanned, before.Skipped)
	fmt.Fprintf(&b, "vuln scan, tuned paths:  findings=%d scanned=%d skipped=%d\n",
		len(after.Findings), after.Scanned, after.Skipped)
	fmt.Fprintf(&b, "blind spot closed by tuning: %d additional findings (ONOS/VOLTHA under /opt)\n\n",
		len(after.Findings)-len(before.Findings))

	// Signed update accept/reject matrix.
	repo, err := updates.NewRepository("genio-main")
	if err != nil {
		return "", err
	}
	node := host.New("node", "onl-debian10")
	client := updates.NewClient(repo.PublicKey(), node)
	good := repo.Publish("genio-agent", "1.2.0", []byte("agent"))
	md := repo.Metadata()

	evil, err := updates.NewRepository("evil-mirror")
	if err != nil {
		return "", err
	}
	evilPkg := evil.Publish("genio-agent", "1.2.1", []byte("trojan"))

	tampered := good
	tampered.Data = []byte("trojaned")

	cases := [][2]string{}
	try := func(name string, m updates.RepoMetadata, a updates.PackageArtifact) {
		if err := client.Install(m, a); err != nil {
			cases = append(cases, [2]string{name, "REJECTED (" + firstLine(err.Error()) + ")"})
		} else {
			cases = append(cases, [2]string{name, "accepted"})
		}
	}
	try("valid signed package", md, good)
	try("tampered payload", md, tampered)
	try("package from untrusted repo", evil.Metadata(), evilPkg)
	try("package missing from metadata", md, updates.PackageArtifact{Name: "ghost", Version: "1", Data: []byte("x")})
	b.WriteString("APT-style update verification matrix:\n")
	b.WriteString(table(cases))

	// ONIE image path.
	t, err := tpm.New()
	if err != nil {
		return "", err
	}
	signer, err := updates.NewImageSigner("genio-build")
	if err != nil {
		return "", err
	}
	updates.ProvisionTrustAnchor(t, signer.PublicKey())
	onie := &updates.ONIE{TPM: t, MinimalEnvVerified: true, CurrentVersion: "onl-4.19.81"}
	img := updates.OSImage{Version: "onl-4.19.300", Data: []byte("new-image")}
	sig := signer.Sign(img)
	onieCases := [][2]string{}
	if err := onie.Apply(img, sig); err == nil {
		onieCases = append(onieCases, [2]string{"signed ONIE image, minimal env", "applied"})
	}
	bad := img
	bad.Data = []byte("evil")
	if err := onie.Apply(bad, sig); err != nil {
		onieCases = append(onieCases, [2]string{"tampered ONIE image", "REJECTED"})
	}
	onie2 := &updates.ONIE{TPM: t, MinimalEnvVerified: false}
	if err := onie2.Apply(img, sig); err != nil {
		onieCases = append(onieCases, [2]string{"apply from full (untrusted) OS", "REJECTED (NIST SP 800-193)"})
	}
	b.WriteString("\nONIE image update matrix (TPM-backed trust anchor):\n")
	b.WriteString(table(onieCases))
	return b.String(), nil
}

// Lesson5 contrasts SDN allowlisting (easy) with orchestrator RBAC
// tightening (iterative), and shows checker-tool coverage is partial.
func Lesson5() (string, error) {
	var b strings.Builder
	b.WriteString("Lesson 5: network-management hardening is straightforward;\n")
	b.WriteString("orchestrator RBAC needs iterative least-privilege work, and no\n")
	b.WriteString("single checker tool covers all risks\n\n")

	// SDN allowlist: production op mix + attack ops, zero disruption.
	allow := rbac.DefaultSDNAllowlist()
	production := []string{"device.register", "device.list", "network.configure", "network.status", "diag.log"}
	disrupted := 0
	for i := 0; i < 200; i++ {
		if !allow.Allow(production[i%len(production)]) {
			disrupted++
		}
	}
	dangerous := []string{"shell.exec", "debug.attach", "log.raw", "firmware.write"}
	blockedDangerous := 0
	for _, op := range dangerous {
		if !allow.Allow(op) {
			blockedDangerous++
		}
	}
	allowed, blocked := allow.Counts()
	fmt.Fprintf(&b, "SDN allowlist: %d production ops allowed, %d disrupted; %d/%d dangerous ops blocked (total blocked=%d)\n",
		allowed, disrupted, blockedDangerous, len(dangerous), blocked)

	// Orchestrator RBAC: wildcard -> usage-driven tightening.
	e := rbac.NewEngine()
	e.SetRole(rbac.Role{Name: "workload", Permissions: []rbac.Permission{{Verb: "*", Resource: "*"}}})
	if err := e.Bind("tenant-svc", "workload"); err != nil {
		return "", err
	}
	observed := []rbac.Permission{
		{Verb: "get", Resource: "configmaps"},
		{Verb: "watch", Resource: "pods"},
		{Verb: "create", Resource: "leases"},
	}
	for _, p := range observed {
		e.Check("tenant-svc", p)
	}
	flagged := len(e.AuditLeastPrivilege())
	e.SetRole(rbac.Role{Name: "workload", Permissions: observed})
	for _, p := range observed {
		if !e.Check("tenant-svc", p).Allowed {
			return "", fmt.Errorf("tightened role broke workload traffic")
		}
	}
	escalation := e.Check("tenant-svc", rbac.Permission{Verb: "delete", Resource: "nodes"})
	fmt.Fprintf(&b, "K8s RBAC: wildcard role flagged by audit (%d finding), tightened to %d concrete\n",
		flagged, len(observed))
	fmt.Fprintf(&b, "          permissions with zero workload breakage; node-delete escalation now denied=%v\n\n",
		!escalation.Allowed)

	// Checker coverage union.
	reg := container.NewRegistry()
	cluster := orchestrator.NewCluster("edge-audit", reg, orchestrator.InsecureDefaults())
	nsa := scap.NSAKubernetesProfile()
	cis := scap.CISKubernetesProfile()
	union := scap.CombinedClusterCoverage(cluster, nsa, cis)
	fmt.Fprintf(&b, "checker coverage: NSA=%d rules, CIS=%d rules, union=%d distinct checks\n",
		len(nsa.Rules), len(cis.Rules), len(union))
	fmt.Fprintf(&b, "-> each tool alone covers %d%% / %d%% of the union (multiple tools required)\n",
		100*len(nsa.Rules)/len(union), 100*len(cis.Rules)/len(union))
	return b.String(), nil
}

// Lesson6 simulates CVE tracking across feed maturities and measures the
// attack window per middleware component.
func Lesson6() (string, error) {
	var b strings.Builder
	b.WriteString("Lesson 6: middleware vulnerability management is reactive and\n")
	b.WriteString("resource-intensive; fragmented feeds stretch the attack window\n\n")

	tr := vuln.NewTracker(vuln.DefaultFeeds(), 5)
	exposures := tr.TrackAll(vuln.DefaultDatabase())
	b.WriteString("per-CVE exposure (disclosure -> patched), patch cycle = 5 days:\n")
	fmt.Fprintf(&b, "  %-14s %-16s %-24s %-7s %s\n", "CVE", "component", "best feed", "window", "manual steps")
	totalManual := 0
	for _, e := range exposures {
		if e.NeverVisible {
			fmt.Fprintf(&b, "  %-14s %-16s %-24s %-7s %s\n",
				e.CVE.ID, e.Component, "(never visible)", "inf", "-")
			continue
		}
		fmt.Fprintf(&b, "  %-14s %-16s %-24s %-7d %d\n",
			e.CVE.ID, e.Component, e.BestFeed, e.WindowDays, e.ManualSteps)
		totalManual += e.ManualSteps
	}
	fmt.Fprintf(&b, "\ntotal manual review steps across the stack: %d\n", totalManual)

	// Aggregate by feed kind.
	byFeed := map[string][]int{}
	for _, e := range exposures {
		if !e.NeverVisible {
			byFeed[e.BestFeed] = append(byFeed[e.BestFeed], e.WindowDays)
		}
	}
	b.WriteString("\nmean window by winning feed:\n")
	for _, feed := range sortedKeys(byFeed) {
		sum := 0
		for _, w := range byFeed[feed] {
			sum += w
		}
		fmt.Fprintf(&b, "  %-24s %.1f days (n=%d)\n", feed, float64(sum)/float64(len(byFeed[feed])), len(byFeed[feed]))
	}

	// Without the NVD fallback, stale/UI-only channels leave components
	// dark — the fragmentation cost in its purest form.
	var noNVD []vuln.Feed
	for _, f := range vuln.DefaultFeeds() {
		if f.Kind != vuln.FeedNVD {
			noNVD = append(noNVD, f)
		}
	}
	dark := 0
	for _, e := range vuln.NewTracker(noNVD, 5).TrackAll(vuln.DefaultDatabase()) {
		if e.NeverVisible {
			dark++
		}
	}
	fmt.Fprintf(&b, "\nwithout the NVD fallback, %d CVEs are never visible through any\n", dark)
	b.WriteString("project channel (stale ONOS feed, OS packages with no project feed)\n")

	// KBOM precision.
	kbom := vuln.DefaultKBOM()
	findings := kbom.Match(vuln.DefaultDatabase())
	fmt.Fprintf(&b, "\nKBOM match on deployed cluster: %d findings with exact versions (no name-only noise)\n", len(findings))
	return b.String(), nil
}

// Lesson7 measures SCA noise, SAST false positives, and the fuzzability
// boundary.
func Lesson7() (string, error) {
	var b strings.Builder
	b.WriteString("Lesson 7: SCA flags unreachable dependencies (bloated reports);\n")
	b.WriteString("SAST needs triage; fuzzing only works for standard interfaces\n\n")

	images := []*container.Image{
		container.IoTGatewayImage(), container.MLInferenceImage(), container.AnalyticsImage(),
	}
	scanner := sca.NewScanner(sca.DependencyDatabase())
	b.WriteString("SCA findings (full report vs reachability-filtered):\n")
	for _, img := range images {
		full := scanner.Scan(img)
		filtered := full.ReachableOnly()
		noise := len(full.Findings) - len(filtered.Findings)
		fmt.Fprintf(&b, "  %-24s full=%d reachable=%d noise-filtered=%d\n",
			img.Ref(), len(full.Findings), len(filtered.Findings), noise)
	}

	sastScanner := sast.NewScanner(sast.DefaultRules())
	b.WriteString("\nSAST findings (all vs actionable after FP triage):\n")
	for _, img := range images {
		rep := sastScanner.Scan(img)
		fmt.Fprintf(&b, "  %-24s findings=%d actionable=%d files=%d\n",
			img.Ref(), len(rep.Findings), len(rep.Actionable()), rep.FilesScanned)
	}

	// Fuzzability boundary.
	fuzzable := 0
	for _, img := range images {
		if img.Config.HasRESTAPI {
			fuzzable++
		}
	}
	fmt.Fprintf(&b, "\nfuzzable images (expose REST/OpenAPI): %d of %d\n", fuzzable, len(images))

	// Live fuzzing: vulnerable vs fixed builds.
	vulnSrv := httptest.NewServer(dast.VulnerableHandler())
	defer vulnSrv.Close()
	fixedSrv := httptest.NewServer(dast.FixedHandler("token"))
	defer fixedSrv.Close()

	fz := dast.NewFuzzer()
	vulnRep, err := fz.Fuzz(vulnSrv.URL, dast.VulnerableSpec())
	if err != nil {
		return "", err
	}
	fzAuth := dast.NewFuzzer()
	fzAuth.AuthToken = "token"
	fixedRep, err := fzAuth.Fuzz(fixedSrv.URL, dast.VulnerableSpec())
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\nREST fuzzing (CATS role, live HTTP servers):\n")
	fmt.Fprintf(&b, "  vulnerable build: %d requests -> %d findings\n", vulnRep.RequestsSent, len(vulnRep.Findings))
	for _, f := range vulnRep.Findings {
		fmt.Fprintf(&b, "    [%s] %s payload=%.30q status=%d\n", f.Kind, f.Endpoint, f.Payload, f.Status)
	}
	fmt.Fprintf(&b, "  fixed build:      %d requests -> %d findings\n", fixedRep.RequestsSent, len(fixedRep.Findings))
	return b.String(), nil
}

// Lesson8 measures detection/enforcement effectiveness and the tuning
// trade-off: FP rate before/after tuning with true positives retained.
func Lesson8() (string, error) {
	var b strings.Builder
	b.WriteString("Lesson 8: detection/isolation tools are mature and effective, but\n")
	b.WriteString("policies need tuning to cut false positives without losing coverage\n\n")

	benign := [][]trace.Event{
		trace.BenignWebTrace("web-1", "acme", 20),
		trace.BenignBatchTrace("batch-1", "acme", 20),
		// A web app that legitimately calls an external SaaS and writes
		// logs — the FP source out of the box.
		trace.NewBuilder("web-2", "acme").
			Add(trace.EventExec, "runc", "/app/server").
			Add(trace.EventConnect, "server", "api.stripe.example:443").
			Add(trace.EventConnect, "server", "api.stripe.example:443").
			Add(trace.EventFileWrite, "server", "/var/log/app/access.log").
			Events(),
	}
	attacks := map[string][]trace.Event{
		"container-escape": trace.ContainerEscapeTrace("esc", "shady"),
		"reverse-shell":    trace.ReverseShellTrace("rsh", "acme"),
		"cryptominer":      trace.CryptominerTrace("miner", "shady"),
		"data-exfil":       trace.DataExfiltrationTrace("exf", "acme"),
	}

	evaluate := func(e *falco.Engine) (fps int, detected int) {
		for _, tr := range benign {
			fps += len(e.ConsumeAll(tr))
		}
		for _, name := range sortedKeys(attacks) {
			if len(e.ConsumeAll(attacks[name])) > 0 {
				detected++
			}
		}
		return fps, detected
	}

	untuned := falco.NewEngine(falco.DefaultRules())
	fpU, detU := evaluate(untuned)
	tuned := falco.NewEngine(falco.DefaultRules())
	if err := tuned.SetExceptions("unexpected-egress", []string{"api.stripe.example"}); err != nil {
		return "", err
	}
	if err := tuned.SetExceptions("write-outside-app", []string{"/var/log/"}); err != nil {
		return "", err
	}
	fpT, detT := evaluate(tuned)
	fmt.Fprintf(&b, "Falco (detection, M18): untuned FPs=%d detected=%d/%d | tuned FPs=%d detected=%d/%d\n",
		fpU, detU, len(attacks), fpT, detT, len(attacks))

	// Sandbox enforcement outcomes.
	enf := sandbox.NewEnforcer()
	blockedAttacks := 0
	for _, events := range attacks {
		if len(sandbox.Blocked(enf.Process(events))) > 0 {
			blockedAttacks++
		}
	}
	benignBlocked := 0
	for _, tr := range benign {
		benignBlocked += len(sandbox.Blocked(enf.Process(tr)))
	}
	fmt.Fprintf(&b, "KubeArmor (enforcement, M17): attacks blocked=%d/%d, benign events blocked=%d\n",
		blockedAttacks, len(attacks), benignBlocked)
	b.WriteString("-> enforcement stops the escape-class attacks outright; the stealthier\n")
	b.WriteString("   miner/exfil behaviours are covered by detection, matching the paper's\n")
	b.WriteString("   complementary roles for sandboxing (block) and monitoring (observe)\n")

	// Overhead: events/second through detection and enforcement.
	const n = 100000
	load := trace.BenignWebTrace("perf", "acme", n/2)
	e := falco.NewEngine(falco.DefaultRules())
	start := time.Now()
	e.ConsumeAll(load)
	falcoRate := float64(len(load)) / time.Since(start).Seconds()
	enf2 := sandbox.NewEnforcer()
	start = time.Now()
	enf2.Process(load)
	sandboxRate := float64(len(load)) / time.Since(start).Seconds()
	fmt.Fprintf(&b, "overhead: falco %.0f events/s, sandbox %.0f events/s (acceptable bounds)\n",
		falcoRate, sandboxRate)
	return b.String(), nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
