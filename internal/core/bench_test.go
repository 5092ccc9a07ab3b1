package core

// Platform benchmarks: the in-process deploy, runtime and incident paths
// the wire benchmark's per-layer ladder (benchmark/README.md) does not
// cover. Run with:
//
//	go test -bench=. -benchmem -run='^$' ./internal/core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"genio/internal/container"
	"genio/internal/orchestrator"
	"genio/internal/persist"
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
func benchDeployPlatform(b testing.TB, opts ...Option) *Platform {
	b.Helper()
	p, err := New(SecureConfig(), opts...)
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

// BenchmarkRecover times a restart: OpenWAL plus New on a data dir shaped
// like the wire benchmark's hot_sync_bulk_recover after its deploys —
// 8 nodes, 1700 sync placements then 64 batches of 64 (5796 in all),
// killed with a snapshot of the first half and the second half still in
// the log, whose batch names sort before the snapshot's sync names. Each
// op recovers a fresh copy of the dir and checks every placement is back.
func BenchmarkRecover(b *testing.B) {
	src := benchRecoverDir(b)
	var files [][]byte
	for _, name := range []string{"snapshot.json", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			b.Fatal(err)
		}
		files = append(files, data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "data")
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		for j, name := range []string{"snapshot.json", "wal.log"} {
			if err := os.WriteFile(filepath.Join(dir, name), files[j], 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		wal, err := persist.OpenWAL(dir)
		if err != nil {
			b.Fatal(err)
		}
		p, err := New(SecureConfig(), WithStore(wal))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := p.Cluster.WorkloadCount(); n != benchRecoverPlacements {
			b.Fatalf("recovered %d workloads, want %d", n, benchRecoverPlacements)
		}
		p.Crash()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(files[0]))/1024, "snapshot-KB")
	b.ReportMetric(float64(len(files[1]))/1024, "wal-KB")
}

// benchRecoverPlacements is the placement count benchRecoverDir leaves.
const benchRecoverPlacements = 1700 + 64*64

// benchRecoverDir deploys BenchmarkRecover's placements onto a durable
// platform with automatic snapshots off, snapshots once half of them are
// in, and crashes, returning the data dir.
func benchRecoverDir(b *testing.B) string {
	b.Helper()
	dir := filepath.Join(b.TempDir(), "data")
	wal, err := persist.OpenWAL(dir)
	if err != nil {
		b.Fatal(err)
	}
	p := benchDeployPlatform(b, WithStore(wal), WithSnapshotEvery(1<<30))
	for i := 1; i < 8; i++ {
		if _, err := p.AddEdgeNode(fmt.Sprintf("olt-bench-%d", i), orchestrator.Resources{CPUMilli: 1 << 30, MemoryMB: 1 << 30}); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	for i := 0; i < 1700; i++ {
		prefix, n := "w", i-100
		if i < 100 {
			prefix, n = "u", i
		}
		if _, err := p.DeployContext(ctx, "ci", benchSpec(fmt.Sprintf("%s-%05d", prefix, n))); err != nil {
			b.Fatal(err)
		}
	}
	snapped := false
	for batch := 0; batch < 64; batch++ {
		if !snapped && p.Cluster.WorkloadCount() >= benchRecoverPlacements/2 {
			if err := p.SnapshotNow(); err != nil {
				b.Fatal(err)
			}
			snapped = true
		}
		specs := make([]orchestrator.WorkloadSpec, 64)
		for i := range specs {
			specs[i] = benchSpec(fmt.Sprintf("b-%04d-%02d", batch, i))
		}
		_, errs := p.DeployBatchContext(ctx, "ci", specs)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	p.Crash()
	return dir
}
