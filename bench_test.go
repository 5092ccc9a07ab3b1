package genio_test

// Benchmark harness: one testing.B per reproduced figure/lesson, exercising
// the hot path of each mitigation. Run with:
//
//	go test -bench=. -benchmem .
//
// The genio-bench command prints the corresponding experiment reports;
// these benchmarks provide the machine-measured per-operation costs.
// The deploy, wire, scanner, scheduler, federation and spine rows live
// in the wire benchmark's per-layer ladder (benchmark/README.md) instead;
// what stays here is what the ladder does not cover.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"genio"
	"genio/internal/attack"
	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/falco"
	"genio/internal/fim"
	"genio/internal/host"
	"genio/internal/macsec"
	"genio/internal/pki"
	"genio/internal/pon"
	"genio/internal/rbac"
	"genio/internal/sandbox"
	"genio/internal/scap"
	"genio/internal/threatmodel"
	"genio/internal/tpm"
	"genio/internal/trace"
	"genio/internal/updates"
	"genio/internal/vuln"
)

// --- Figure 3 ---------------------------------------------------------------

func BenchmarkThreatModelMatrix(b *testing.B) {
	m := threatmodel.GENIOModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(m.Matrix()) != 8 {
			b.Fatal("bad matrix")
		}
	}
}

// --- Lesson 1: hardening ------------------------------------------------------

func BenchmarkSCAPEvaluate(b *testing.B) {
	h := host.NewONLOLT("olt-bench")
	profile := scap.SCAPBaselineProfile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scap.EvaluateHost(profile, h)
	}
}

func BenchmarkKernelHardeningCheck(b *testing.B) {
	h := host.NewONLOLT("olt-bench")
	host.HardenONLOLT(h)
	profile := scap.KernelHardeningProfile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scap.EvaluateHost(profile, h)
	}
}

// --- Lesson 2: encryption ------------------------------------------------------

func benchChannel(b *testing.B) (*macsec.SecY, *macsec.SecY) {
	b.Helper()
	a, z := macsec.NewSecY("a"), macsec.NewSecY("z")
	var key [32]byte
	key[0] = 1
	if _, err := macsec.NewChannel(a, z, key, 1<<30); err != nil {
		b.Fatal(err)
	}
	return a, z
}

func BenchmarkMACsecProtect(b *testing.B) {
	a, _ := benchChannel(b)
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Protect(0, macsec.Frame{Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMACsecProtectValidate(b *testing.B) {
	a, z := benchChannel(b)
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pf, err := a.Protect(0, macsec.Frame{Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := z.Validate(pf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPONEncryptedFrame(b *testing.B) {
	kr := pon.NewKeyRing()
	var key [32]byte
	key[0] = 7
	kr.SetKey(1, key)
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := kr.EncryptFrame(1, uint64(i+1), payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := kr.DecryptFrame(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnboardingHandshake(b *testing.B) {
	ca, err := pki.NewCA("bench-root")
	if err != nil {
		b.Fatal(err)
	}
	oltID, err := ca.Issue("olt", pki.RoleOLT)
	if err != nil {
		b.Fatal(err)
	}
	olt, err := pon.NewOLT("olt", pon.ModeAuthenticated, ca, oltID)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial := fmt.Sprintf("onu-%d", i)
		id, err := ca.Issue(serial, pki.RoleONU)
		if err != nil {
			b.Fatal(err)
		}
		if err := olt.Activate(pon.NewONU(serial, id)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- M5/M6 substrate costs ------------------------------------------------------

func BenchmarkTPMExtend(b *testing.B) {
	t, err := tpm.New()
	if err != nil {
		b.Fatal(err)
	}
	data := []byte("component-image")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := t.Extend(tpm.PCRApp, "bench", data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTPMSealUnseal(b *testing.B) {
	t, err := tpm.New()
	if err != nil {
		b.Fatal(err)
	}
	secret := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob, err := t.Seal(secret, []int{tpm.PCRKernel})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := t.Unseal(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Lesson 3: FIM -------------------------------------------------------------

func BenchmarkFIMScan(b *testing.B) {
	h := host.NewONLOLT("olt-bench")
	t, err := tpm.New()
	if err != nil {
		b.Fatal(err)
	}
	m, err := fim.NewMonitor(h, t, fim.Config{MutablePrefixes: []string{"/var/log/"}})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Init(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Scan(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Lesson 4: scanning + updates -------------------------------------------------

func BenchmarkVulnScan(b *testing.B) {
	h := host.NewONLOLT("olt-bench")
	s := vuln.NewScanner(vuln.DefaultDatabase())
	s.AddSearchPath("/opt/")
	s.AddSearchPath("/lib/onl")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Scan(h)
	}
}

func BenchmarkUpdateVerify(b *testing.B) {
	repo, err := updates.NewRepository("bench")
	if err != nil {
		b.Fatal(err)
	}
	h := host.New("node", "onl")
	client := updates.NewClient(repo.PublicKey(), h)
	pkg := repo.Publish("agent", "1.0", make([]byte, 4096))
	md := repo.Metadata()
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Install(md, pkg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Lesson 5: SDN allowlist -------------------------------------------------------

func BenchmarkSDNAllowlist(b *testing.B) {
	a := rbac.DefaultSDNAllowlist()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Allow("device.register")
		a.Allow("shell.exec")
	}
}

// --- Lesson 6: feeds ----------------------------------------------------------------

func BenchmarkFeedTracking(b *testing.B) {
	tr := vuln.NewTracker(vuln.DefaultFeeds(), 5)
	db := vuln.DefaultDatabase()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.TrackAll(db)
	}
}

// --- Lesson 8: runtime ------------------------------------------------------------------

func BenchmarkFalcoPipeline(b *testing.B) {
	e := falco.NewEngine(falco.DefaultRules())
	events := trace.BenignWebTrace("bench", "acme", 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ConsumeAll(events)
	}
	b.ReportMetric(float64(len(events)), "events/op")
}

func BenchmarkSandboxEnforce(b *testing.B) {
	e := sandbox.NewEnforcer()
	e.SetPolicy("bench", sandbox.DefaultWorkloadPolicy())
	events := trace.BenignWebTrace("bench", "acme", 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(events)
	}
	b.ReportMetric(float64(len(events)), "events/op")
}

// --- End-to-end ----------------------------------------------------------------------------

func BenchmarkAdmissionPipeline(b *testing.B) {
	p, err := core.New(core.SecureConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.AddEdgeNode("olt-bench", genio.Resources{CPUMilli: 1 << 30, MemoryMB: 1 << 30}); err != nil {
		b.Fatal(err)
	}
	pub, err := container.NewPublisher("acme")
	if err != nil {
		b.Fatal(err)
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	img := container.AnalyticsImage()
	sig := pub.Sign(img)
	p.Registry.Push(img, &sig)
	p.RBAC.SetRole(rbac.Role{Name: "deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
	}})
	if err := p.RBAC.Bind("ci", "deployer"); err != nil {
		b.Fatal(err)
	}
	p.Cluster.SetQuota("acme", genio.Resources{}) // unlimited for the bench
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("w-%d", i)
		if _, err := p.DeployContext(context.Background(), "ci", genio.WorkloadSpec{
			Name: name, Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
			Isolation: genio.IsolationSoft,
			Resources: genio.Resources{CPUMilli: 1, MemoryMB: 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDeployPlatform builds a secure platform ready to admit the signed
// analytics image for tenant acme without quota limits.
func benchDeployPlatform(b testing.TB, opts ...core.Option) *core.Platform {
	b.Helper()
	p, err := core.New(core.SecureConfig(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	if _, err := p.AddEdgeNode("olt-bench", genio.Resources{CPUMilli: 1 << 30, MemoryMB: 1 << 30}); err != nil {
		b.Fatal(err)
	}
	pub, err := container.NewPublisher("acme")
	if err != nil {
		b.Fatal(err)
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	img := container.AnalyticsImage()
	sig := pub.Sign(img)
	p.Registry.Push(img, &sig)
	p.RBAC.SetRole(rbac.Role{Name: "deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
	}})
	if err := p.RBAC.Bind("ci", "deployer"); err != nil {
		b.Fatal(err)
	}
	p.Cluster.SetQuota("acme", genio.Resources{}) // unlimited for the bench
	return p
}

func benchSpec(name string) genio.WorkloadSpec {
	return genio.WorkloadSpec{
		Name: name, Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: genio.IsolationSoft,
		Resources: genio.Resources{CPUMilli: 1, MemoryMB: 1},
	}
}

// BenchmarkDeployParallel is the multi-tenant hot path as shipped: deploys
// from concurrent goroutines with the per-digest verdict cache, against
// the one-lock cluster state.
func BenchmarkDeployParallel(b *testing.B) {
	p := benchDeployPlatform(b)
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			name := fmt.Sprintf("par-%d", seq.Add(1))
			if _, err := p.DeployContext(context.Background(), "ci", benchSpec(name)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Runtime and incident spine ---------------------------------------------

// BenchmarkObserveRuntimeParallel streams attack traces from concurrent
// goroutines through enforcement, detection, and the incident bus.
func BenchmarkObserveRuntimeParallel(b *testing.B) {
	p := benchDeployPlatform(b)
	if _, err := p.DeployContext(context.Background(), "ci", benchSpec("victim")); err != nil {
		b.Fatal(err)
	}
	events := trace.ReverseShellTrace("victim", "acme")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.ObserveRuntime(events)
		}
	})
	b.StopTimer()
	p.Flush()
}

// BenchmarkIncidentStormParallel is the platform-level incident storm:
// concurrent producers with distinct workload keys exercise the ledger
// append and the spine end to end (record -> publish -> queue).
func BenchmarkIncidentStormParallel(b *testing.B) {
	p, err := core.New(core.SecureConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		inc := core.Incident{Source: "storm",
			Workload: fmt.Sprintf("w-%d", seq.Add(1)), Detail: "parallel storm"}
		for pb.Next() {
			p.RecordIncident(inc)
		}
	})
	b.StopTimer()
	p.Flush()
	// RecordIncident cannot fail, so exactness is checked post-run on
	// the benchmark goroutine.
	if got := p.IncidentCounts()["storm"]; got != b.N {
		b.Fatalf("recorded %d incidents, want %d", got, b.N)
	}
}

// BenchmarkIncidentFanIn measures the incident path under concurrent
// producers sharing one key — the path every enforcement verdict and
// detection alert takes on the runtime hot path (formerly the
// single-writer bus benchmark; the spine must meet or beat it).
func BenchmarkIncidentFanIn(b *testing.B) {
	p, err := core.New(core.SecureConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	inc := core.Incident{Source: "bench", Workload: "w", Detail: "fan-in"}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.RecordIncident(inc)
		}
	})
	b.StopTimer()
	p.Flush()
	if got := p.IncidentCounts()["bench"]; got != b.N {
		b.Fatalf("recorded %d incidents, want %d", got, b.N)
	}
}

func BenchmarkFullCampaignSecure(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := core.New(core.SecureConfig())
		if err != nil {
			b.Fatal(err)
		}
		c, err := attack.NewCampaign(p)
		if err != nil {
			b.Fatal(err)
		}
		results := c.Run()
		if attack.Summary(results)[attack.OutcomeMissed] != 0 {
			b.Fatal("secure platform missed an attack")
		}
		p.Close()
	}
}

func BenchmarkSecureBootAndAttest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := core.New(core.SecureConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.AddEdgeNode("olt", genio.Resources{CPUMilli: 1000, MemoryMB: 1024}); err != nil {
			b.Fatal(err)
		}
		p.Close()
	}
}
