package genio_test

// Benchmark harness: one testing.B per reproduced figure/lesson, exercising
// the hot path of each mitigation. Run with:
//
//	go test -bench=. -benchmem .
//
// The genio-bench command prints the corresponding experiment reports;
// these benchmarks provide the machine-measured per-operation costs.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genio"
	"genio/api"
	"genio/api/client"
	"genio/api/server"
	"genio/internal/attack"
	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/falco"
	"genio/internal/federation"
	"genio/internal/fim"
	"genio/internal/host"
	"genio/internal/macsec"
	"genio/internal/malware"
	"genio/internal/orchestrator"
	"genio/internal/orchestrator/scheduler"
	"genio/internal/persist"
	"genio/internal/pki"
	"genio/internal/pon"
	"genio/internal/rbac"
	"genio/internal/sandbox"
	"genio/internal/sast"
	"genio/internal/sca"
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

// --- Lesson 5: RBAC ---------------------------------------------------------------

func BenchmarkRBACCheck(b *testing.B) {
	e := rbac.NewEngine()
	e.SetRole(rbac.Role{Name: "deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
		{Verb: "get", Resource: "pods", Namespace: "acme"},
		{Verb: "watch", Resource: "pods", Namespace: "acme"},
	}})
	if err := e.Bind("ci", "deployer"); err != nil {
		b.Fatal(err)
	}
	req := rbac.Permission{Verb: "create", Resource: "workloads", Namespace: "acme"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !e.Check("ci", req).Allowed {
			b.Fatal("denied")
		}
	}
}

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

// --- Lesson 7: app scanning -----------------------------------------------------------

func BenchmarkSCAScan(b *testing.B) {
	s := sca.NewScanner(sca.DependencyDatabase())
	img := container.IoTGatewayImage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Scan(img)
	}
}

func BenchmarkSASTScan(b *testing.B) {
	s := sast.NewScanner(sast.DefaultRules())
	img := container.IoTGatewayImage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Scan(img)
	}
}

func BenchmarkMalwareScan(b *testing.B) {
	s, err := malware.NewScanner(malware.DefaultRules())
	if err != nil {
		b.Fatal(err)
	}
	img := container.CryptominerImage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.Scan(img).Malicious() {
			b.Fatal("missed")
		}
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
		if _, err := p.Deploy("ci", genio.WorkloadSpec{
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

// BenchmarkDeploySequentialAdmission is the cold admission path: the
// whole scanner chain on every deploy, no verdict cache. The concurrency
// benchmarks below are measured against this baseline.
func BenchmarkDeploySequentialAdmission(b *testing.B) {
	p := benchDeployPlatform(b)
	p.Cluster.AdmissionCacheDisabled = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Deploy("ci", benchSpec(fmt.Sprintf("seq-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeployParallel is the multi-tenant hot path as shipped: deploys
// from concurrent goroutines with the per-digest verdict cache, against
// the sharded cluster state.
func BenchmarkDeployParallel(b *testing.B) {
	p := benchDeployPlatform(b)
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			name := fmt.Sprintf("par-%d", seq.Add(1))
			if _, err := p.Deploy("ci", benchSpec(name)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALDeployThroughput is BenchmarkDeployParallel over a
// WAL-backed platform: every placement appends to the durable log. The
// group commit keeps the fsync off the deploy path, so this must stay
// within a whisker of the in-memory parallel baseline — it gates the
// persistence layer's central performance claim.
func BenchmarkWALDeployThroughput(b *testing.B) {
	store, err := persist.OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	p := benchDeployPlatform(b, core.WithStore(store))
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			name := fmt.Sprintf("wal-%d", seq.Add(1))
			if _, err := p.Deploy("ci", benchSpec(name)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeployBatch measures the batch-admission surface end to end
// (since API v2 the batch is a fan-out over DeployAsync futures).
func BenchmarkDeployBatch(b *testing.B) {
	p := benchDeployPlatform(b)
	const batch = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs := make([]genio.WorkloadSpec, batch)
		for j := range specs {
			specs[j] = benchSpec(fmt.Sprintf("batch-%d-%d", i, j))
		}
		_, errs := p.DeployBatch("ci", specs)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(batch, "workloads/op")
}

// BenchmarkDeployBatchSyncBarrier is the pre-v2 batch shape kept as the
// comparison baseline: synchronous Deploys fanned over a bounded worker
// pool, each worker barriering on its deploy before taking the next.
// BenchmarkDeployAsyncPipelined must meet or beat it.
func BenchmarkDeployBatchSyncBarrier(b *testing.B) {
	p := benchDeployPlatform(b)
	const batch = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs := make([]genio.WorkloadSpec, batch)
		for j := range specs {
			specs[j] = benchSpec(fmt.Sprintf("sync-%d-%d", i, j))
		}
		errs := make([]error, batch)
		var (
			wg   sync.WaitGroup
			next atomic.Int64
		)
		for w := runtime.GOMAXPROCS(0); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := next.Add(1) - 1; j < batch; j = next.Add(1) - 1 {
					_, errs[j] = p.Deploy("ci", specs[j])
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(batch, "workloads/op")
}

// BenchmarkDeployAsyncPipelined is the v2 async surface: every spec gets
// a DeployAsync future immediately (admission pipelines across the whole
// batch — no pool barrier), then the batch awaits all results. Gated
// against regression alongside the deploy benchmarks.
func BenchmarkDeployAsyncPipelined(b *testing.B) {
	p := benchDeployPlatform(b)
	const batch = 16
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		futures := make([]*genio.Deployment, batch)
		for j := 0; j < batch; j++ {
			d, err := p.DeployAsync(ctx, "ci", benchSpec(fmt.Sprintf("async-%d-%d", i, j)))
			if err != nil {
				b.Fatal(err)
			}
			futures[j] = d
		}
		for _, d := range futures {
			if _, err := d.Result(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(batch, "workloads/op")
}

// BenchmarkHTTPDeployThroughput is the networked control plane end to
// end: a 16-wide deploy storm where every workload crosses geniod's
// HTTP surface — 16 concurrent signed requests riding session-HMAC
// auth, pooled codec buffers, and kept-alive connections, with a
// typed-error wire decode on the way back. The gap to
// DeployAsyncPipelined is the wire tax; gated against regression
// alongside the deploy benchmarks. (The async-futures wire shape —
// submit + long-poll await, two requests per workload — is kept under
// BenchmarkHTTPDeployAsyncFutures.)
func BenchmarkHTTPDeployThroughput(b *testing.B) {
	p := benchDeployPlatform(b)
	srv := server.New(p, server.Options{CA: p.CA})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	id, err := p.CA.Issue("ci", pki.RoleService)
	if err != nil {
		b.Fatal(err)
	}
	cli := client.NewHTTP(ts.URL, client.WithIdentity(id))
	b.Cleanup(func() { cli.Close() })
	const batch = 16
	ctx := context.Background()
	// Establish the session and warm the connection pool outside the
	// measured region, as a long-lived storm client would.
	if _, err := cli.Deploy(ctx, api.FromWorkloadSpec(benchSpec("http-warm"))); err != nil {
		b.Fatal(err)
	}
	// A fixed pool of 16 sender goroutines, each fed the iteration index
	// on its own channel, so the measurement covers the wire — not per-op
	// goroutine and closure churn that no real storm client pays — and no
	// sender can take two jobs (one workload name, one errs slot) of the
	// same iteration.
	var wg sync.WaitGroup
	errs := make([]error, batch)
	jobs := make([]chan int, batch)
	for j := range jobs {
		jobs[j] = make(chan int, 1) // one send per iteration
		go func(j int) {
			buf := make([]byte, 0, 32)
			for i := range jobs[j] {
				buf = append(buf[:0], "http-"...)
				buf = strconv.AppendInt(buf, int64(i), 10)
				buf = append(buf, '-')
				buf = strconv.AppendInt(buf, int64(j), 10)
				_, errs[j] = cli.Deploy(ctx, api.FromWorkloadSpec(benchSpec(string(buf))))
				wg.Done()
			}
		}(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg.Add(batch)
		for _, ch := range jobs {
			ch <- i
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	for _, ch := range jobs {
		close(ch)
	}
	b.ReportMetric(batch, "workloads/op")
}

// BenchmarkHTTPDeployAsyncFutures is the future-handle wire shape: 16
// async submits then 16 long-poll awaits — two requests per workload,
// the price of a resumable handle. Kept alongside HTTPDeployThroughput
// so the per-request overhead of the futures surface stays visible.
func BenchmarkHTTPDeployAsyncFutures(b *testing.B) {
	p := benchDeployPlatform(b)
	srv := server.New(p, server.Options{CA: p.CA})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	id, err := p.CA.Issue("ci", pki.RoleService)
	if err != nil {
		b.Fatal(err)
	}
	cli := client.NewHTTP(ts.URL, client.WithIdentity(id))
	b.Cleanup(func() { cli.Close() })
	const batch = 16
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		futures := make([]client.Deployment, batch)
		for j := 0; j < batch; j++ {
			spec := api.FromWorkloadSpec(benchSpec(fmt.Sprintf("httpf-%d-%d", i, j)))
			d, err := cli.DeployAsync(ctx, spec)
			if err != nil {
				b.Fatal(err)
			}
			futures[j] = d
		}
		for _, d := range futures {
			if _, err := d.Await(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(batch, "workloads/op")
}

// BenchmarkHTTPDeployBatch is the batched wire path: the same 16
// workloads as HTTPDeployThroughput, but shipped as ONE signed
// /v2/deploy/batch request — one auth verify, one codec round-trip,
// one connection write for the whole storm. The gap to
// HTTPDeployThroughput is the per-request wire tax the batch
// amortizes. Gated against regression alongside the deploy benchmarks.
func BenchmarkHTTPDeployBatch(b *testing.B) {
	p := benchDeployPlatform(b)
	srv := server.New(p, server.Options{CA: p.CA})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	id, err := p.CA.Issue("ci", pki.RoleService)
	if err != nil {
		b.Fatal(err)
	}
	cli := client.NewHTTP(ts.URL, client.WithIdentity(id))
	b.Cleanup(func() { cli.Close() })
	const batch = 16
	ctx := context.Background()
	specs := make([]api.WorkloadSpec, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range specs {
			specs[j] = api.FromWorkloadSpec(benchSpec(fmt.Sprintf("hb-%d-%d", i, j)))
		}
		results, err := cli.DeployBatch(ctx, specs)
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range results {
			if r.Err != nil {
				b.Fatalf("batch element %d: %v", j, r.Err)
			}
		}
	}
	b.ReportMetric(batch, "workloads/op")
}

// BenchmarkWatchFanout100Subs measures the encode-once SSE fan-out:
// 100 authenticated watch streams are held open against the server,
// then each op publishes ONE lifecycle event and waits until every
// subscriber has received it over its own connection. The server
// renders the SSE frame once per event and shares the bytes across all
// 100 streams; before encode-once each subscriber paid its own
// marshal. Gated against regression alongside the deploy benchmarks.
func BenchmarkWatchFanout100Subs(b *testing.B) {
	p := benchDeployPlatform(b)
	p.RBAC.SetRole(rbac.Role{Name: "watcher", Permissions: []rbac.Permission{
		{Verb: "watch", Resource: "deployments", Namespace: "*"},
	}})
	if err := p.RBAC.Bind("ci", "watcher"); err != nil {
		b.Fatal(err)
	}
	srv := server.New(p, server.Options{CA: p.CA})
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	id, err := p.CA.Issue("ci", pki.RoleService)
	if err != nil {
		b.Fatal(err)
	}
	cli := client.NewHTTP(ts.URL, client.WithIdentity(id))
	b.Cleanup(func() { cli.Close() })
	const subs = 100
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	streams := make([]<-chan api.LifecycleEvent, subs)
	for i := range streams {
		ch, err := cli.Watch(ctx, api.WatchSelector{})
		if err != nil {
			b.Fatal(err)
		}
		streams[i] = ch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("fan-%d", i)
		ev := core.LifecycleEvent{Workload: name, Tenant: "acme", State: core.StatePending}
		if err := p.PublishEventContext(ctx, events.Event{
			Topic: events.TopicDeployLifecycle, Key: name, Payload: ev,
		}); err != nil {
			b.Fatal(err)
		}
		for s, ch := range streams {
			got, ok := <-ch
			if !ok {
				b.Fatalf("stream %d closed", s)
			}
			if got.Workload != name {
				b.Fatalf("stream %d: got event for %q, want %q", s, got.Workload, name)
			}
		}
	}
	b.ReportMetric(subs, "deliveries/op")
}

// --- Warm-slot runtime pool ---------------------------------------------------

// benchWarmSpec is benchSpec pinned to hard isolation: a dedicated VM is
// its workload's sole occupant, so every stop parks it as a warm slot.
func benchWarmSpec(name string) genio.WorkloadSpec {
	s := benchSpec(name)
	s.Isolation = genio.IsolationHard
	return s
}

// warmDeployCycle runs one stop→redeploy round: stop workload i (parking
// its dedicated VM) and deploy workload i+1 with the identical spec.
func warmDeployCycle(p *core.Platform, i int) (*orchestrator.Workload, error) {
	if err := p.Cluster.Stop(fmt.Sprintf("warm-%d", i)); err != nil {
		return nil, err
	}
	return p.Deploy("ci", benchWarmSpec(fmt.Sprintf("warm-%d", i+1)))
}

// BenchmarkWarmDeploy is the tentpole fast path: each op stops a
// workload (parking its VM warm) and redeploys the same (tenant, image,
// shape), which claims the parked slot in O(1) — no scan chain, no
// scheduler filter/score, no VM spin-up. Gated in CI against the cold
// path staying >=5x slower (TestWarmDeploySpeedup) and against its own
// regression via genio-benchdiff.
func BenchmarkWarmDeploy(b *testing.B) {
	p := benchDeployPlatform(b)
	p.Cluster.Settings.WarmPoolEnabled = true
	if _, err := p.Deploy("ci", benchWarmSpec("warm-0")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := warmDeployCycle(p, i)
		if err != nil {
			b.Fatal(err)
		}
		if w.Strategy != "warm" {
			b.Fatalf("cycle %d missed the warm pool (strategy %q)", i, w.Strategy)
		}
	}
}

// BenchmarkColdRepeatDeploy is the identical stop→redeploy cycle with
// the warm pool off and the verdict cache disabled: every round pays
// the admission scan chain, scheduler filter/score, and a fresh dedicated
// VM — the cost BenchmarkWarmDeploy's claim path avoids.
func BenchmarkColdRepeatDeploy(b *testing.B) {
	p := benchDeployPlatform(b)
	p.Cluster.AdmissionCacheDisabled = true
	if _, err := p.Deploy("ci", benchWarmSpec("warm-0")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := warmDeployCycle(p, i); err != nil {
			b.Fatal(err)
		}
	}
}

// repeatDeployP50 measures the median stop→redeploy latency over rounds.
func repeatDeployP50(t *testing.T, p *core.Platform, rounds int) time.Duration {
	t.Helper()
	if _, err := p.Deploy("ci", benchWarmSpec("warm-0")); err != nil {
		t.Fatal(err)
	}
	samples := make([]time.Duration, rounds)
	for i := range samples {
		start := time.Now()
		if _, err := warmDeployCycle(p, i); err != nil {
			t.Fatal(err)
		}
		samples[i] = time.Since(start)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[rounds/2]
}

// TestWarmDeploySpeedup is the acceptance bar for the warm-slot pool:
// the p50 repeat-deploy latency through the warm claim path must be at
// least 5x better than the cold path (full admission rescan, scheduling,
// VM spin-up). Medians over enough rounds keep scheduler noise out.
func TestWarmDeploySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	const rounds = 301

	warm := benchDeployPlatform(t)
	warm.Cluster.Settings.WarmPoolEnabled = true
	warmP50 := repeatDeployP50(t, warm, rounds)

	cold := benchDeployPlatform(t)
	cold.Cluster.AdmissionCacheDisabled = true
	coldP50 := repeatDeployP50(t, cold, rounds)

	if warmP50 <= 0 {
		warmP50 = 1
	}
	ratio := float64(coldP50) / float64(warmP50)
	t.Logf("repeat-deploy p50: cold=%v warm=%v (%.1fx)", coldP50, warmP50, ratio)
	if ratio < 5 {
		t.Fatalf("warm path p50 %v is only %.1fx better than cold %v, want >=5x",
			warmP50, ratio, coldP50)
	}
}

// TestWarmDeployAllocs pins the allocation budget of the warm
// repeat-deploy cycle. The deploy path computes Image.Digest exactly
// once per call and threads it through admission and the warm claim; a
// regression that re-hashes per consumer (or re-schedules a claimed
// deploy) shows up here as a step change in allocs/op.
func TestWarmDeployAllocs(t *testing.T) {
	p := benchDeployPlatform(t)
	p.Cluster.Settings.WarmPoolEnabled = true
	if _, err := p.Deploy("ci", benchWarmSpec("warm-0")); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		w, err := warmDeployCycle(p, i)
		if err != nil {
			t.Fatal(err)
		}
		if w.Strategy != "warm" {
			t.Fatalf("cycle %d missed the warm pool", i)
		}
		i++
	})
	// Measured ~64 allocs/op for stop+deploy through the claim path; the
	// bound leaves headroom for incidental churn while catching a
	// per-consumer re-hash (one extra Digest costs ~15 allocations) or a
	// claimed deploy falling back to the scheduler scan.
	if allocs > 110 {
		t.Fatalf("warm stop+redeploy cycle allocates %.0f/op, want <= 110", allocs)
	}
}

// --- Placement engine -------------------------------------------------------

// BenchmarkSchedule1kNodes is the scheduler's hot-path contract: one
// full filter -> score pass over a 1000-node fleet must stay O(nodes)
// with zero allocations (the cluster feeds the engine its cached,
// name-sorted candidate slice, so this is exactly the per-deploy
// placement cost). The AllocsPerRun assertion pins allocs/op at 0
// before timing starts.
func BenchmarkSchedule1kNodes(b *testing.B) {
	eng := scheduler.New()
	cands := make([]scheduler.Candidate, 1000)
	for i := range cands {
		cands[i] = scheduler.Candidate{
			Node:            fmt.Sprintf("olt-%04d", i),
			Capacity:        scheduler.Resources{CPUMilli: 16000, MemoryMB: 32768},
			Used:            scheduler.Resources{CPUMilli: (i * 397) % 12000, MemoryMB: (i * 991) % 24000},
			TenantWorkloads: i % 4,
			SharedVMs:       i % 3,
			Cordoned:        i%17 == 0,
		}
	}
	req := scheduler.Request{
		Workload: "bench", Tenant: "acme",
		Demand:   scheduler.Resources{CPUMilli: 500, MemoryMB: 512},
		Strategy: scheduler.StrategyBinpack,
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := eng.Select(&req, cands); !ok {
			b.Fatal("no feasible candidate")
		}
	}); allocs != 0 {
		b.Fatalf("Select allocates %.1f/op on the no-contention path, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.Select(&req, cands); !ok {
			b.Fatal("no feasible candidate")
		}
	}
}

// BenchmarkFailoverReschedule measures the policy-aware failover path:
// an 8-node cluster loses the node carrying a 32-workload binpacked
// hotspot, every victim reschedules through the scheduler, and the
// node rejoins for the next round.
func BenchmarkFailoverReschedule(b *testing.B) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := orchestrator.NewCluster("bench", reg, orchestrator.Settings{})
	capacity := orchestrator.Resources{CPUMilli: 1 << 20, MemoryMB: 1 << 20}
	for i := 0; i < 8; i++ {
		c.AddNode(fmt.Sprintf("olt-%d", i), capacity)
	}
	for i := 0; i < 32; i++ {
		if _, err := c.Deploy("ops", orchestrator.WorkloadSpec{
			Name: fmt.Sprintf("w-%d", i), Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
			Isolation: orchestrator.IsolationSoft,
			Resources: orchestrator.Resources{CPUMilli: 100, MemoryMB: 128},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, ok := c.Workload("w-0")
		if !ok {
			b.Fatal("hotspot workload lost")
		}
		hot := w.Node
		res, err := c.FailNode(hot)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Evicted) != 0 {
			b.Fatalf("evictions under generous capacity: %v", res.Evicted)
		}
		c.AddNode(hot, capacity)
	}
}

// BenchmarkRingLookup measures the federation router's hot path: one
// consistent-hash ownership lookup on a 16-member ring (128 vnodes per
// member). The lookup runs ahead of the per-cluster scheduler on every
// federated deploy, so it must not allocate.
func BenchmarkRingLookup(b *testing.B) {
	r := federation.NewRing(federation.DefaultReplicas)
	for i := 0; i < 16; i++ {
		r.Add(fmt.Sprintf("edge-%02d", i))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := r.Owner("acme", "sha256:77aa00"); !ok {
			b.Fatal("empty ring")
		}
	}); allocs != 0 {
		b.Fatalf("Owner allocates %.1f/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Owner("acme", "sha256:77aa00"); !ok {
			b.Fatal("empty ring")
		}
	}
}

// BenchmarkFederatedDeploy measures a full federated placement across a
// 16-cluster × 1k-node fleet: region filter, ring ownership with the
// bounded-load check, then the owning cluster's scheduler over its 1000
// candidates. Tenants rotate so placements spread over the ring rather
// than hammering one member's lock.
func BenchmarkFederatedDeploy(b *testing.B) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	fed := federation.New(reg)
	capacity := orchestrator.Resources{CPUMilli: 1 << 20, MemoryMB: 1 << 20}
	for ci := 0; ci < 16; ci++ {
		name := fmt.Sprintf("edge-%02d", ci)
		c := orchestrator.NewCluster(name, reg, orchestrator.Settings{})
		for n := 0; n < 1000; n++ {
			c.AddNode(fmt.Sprintf("%s-olt-%04d", name, n), capacity)
		}
		region := "west"
		if ci%2 == 1 {
			region = "east"
		}
		if err := fed.AddCluster(name, region, c); err != nil {
			b.Fatal(err)
		}
	}
	demand := orchestrator.Resources{CPUMilli: 100, MemoryMB: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := fed.Deploy("ops", orchestrator.WorkloadSpec{
			Name: fmt.Sprintf("bench-%d", i), Tenant: fmt.Sprintf("t-%d", i%64),
			ImageRef:  "acme/analytics:2.0.1",
			Isolation: orchestrator.IsolationSoft, Resources: demand,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveRuntimeParallel streams attack traces from concurrent
// goroutines through enforcement, detection, and the incident bus.
func BenchmarkObserveRuntimeParallel(b *testing.B) {
	p := benchDeployPlatform(b)
	if _, err := p.Deploy("ci", benchSpec("victim")); err != nil {
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

// BenchmarkEventSpineThroughput measures the raw spine: concurrent
// publishers across distinct keys fanning out to one counting
// subscriber, the substrate every telemetry stream now rides.
func BenchmarkEventSpineThroughput(b *testing.B) {
	s := events.NewSpine()
	defer s.Close()
	var delivered atomic.Int64
	if _, err := s.Subscribe("bench", []events.Topic{events.TopicMetric}, func(batch []events.Event) {
		delivered.Add(int64(len(batch)))
	}); err != nil {
		b.Fatal(err)
	}
	var seq atomic.Int64
	var pubErr atomic.Pointer[error]
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("tenant-%d", seq.Add(1))
		ev := events.Event{Topic: events.TopicMetric, Key: key,
			Payload: events.Metric{Name: "bench", Value: 1, Label: key}}
		for pb.Next() {
			if err := s.Publish(ev); err != nil {
				// b.Fatal must run on the benchmark goroutine, not a
				// RunParallel worker; record and fail after.
				pubErr.CompareAndSwap(nil, &err)
				return
			}
		}
	})
	b.StopTimer()
	if errp := pubErr.Load(); errp != nil {
		b.Fatal(*errp)
	}
	s.Flush()
	if got := delivered.Load(); got != int64(b.N) {
		b.Fatalf("delivered %d events, want %d", got, b.N)
	}
}

// BenchmarkIncidentStormParallel is the platform-level incident storm:
// concurrent producers with distinct workload keys exercise the spine
// end to end (publish -> queue -> incident view).
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
