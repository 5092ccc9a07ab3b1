package core

// Platform benchmarks: the in-process deploy, runtime and incident paths
// the wire benchmark's per-layer ladder (benchmark/README.md) does not
// cover. Run with:
//
//	go test -bench=. -benchmem -run='^$' ./internal/core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"genio/internal/container"
	"genio/internal/orchestrator"
	"genio/internal/rbac"
	"genio/internal/trace"
)

func BenchmarkAdmissionPipeline(b *testing.B) {
	p := benchDeployPlatform(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.DeployContext(context.Background(), "ci", benchSpec(fmt.Sprintf("w-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDeployPlatform builds a secure platform ready to admit the signed
// analytics image for tenant acme without quota limits.
func benchDeployPlatform(b testing.TB) *Platform {
	b.Helper()
	p, err := New(SecureConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	if _, err := p.AddEdgeNode("olt-bench", orchestrator.Resources{CPUMilli: 1 << 30, MemoryMB: 1 << 30}); err != nil {
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
	p.Cluster.SetQuota("acme", orchestrator.Resources{}) // unlimited for the bench
	return p
}

func benchSpec(name string) orchestrator.WorkloadSpec {
	return orchestrator.WorkloadSpec{
		Name: name, Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 1, MemoryMB: 1},
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
	p, err := New(SecureConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		inc := Incident{Source: "storm",
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
	p, err := New(SecureConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	inc := Incident{Source: "bench", Workload: "w", Detail: "fan-in"}
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

func BenchmarkSecureBootAndAttest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := New(SecureConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.AddEdgeNode("olt", orchestrator.Resources{CPUMilli: 1000, MemoryMB: 1024}); err != nil {
			b.Fatal(err)
		}
		p.Close()
	}
}
