package core

// Concurrency stress tests for the admission and runtime pipelines: many
// goroutines deploy across nodes and tenants while others stream runtime
// events and read platform state. Run with -race (CI does); the incident
// accounting assertions catch lost events, the counters catch double
// bookings.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"genio/internal/container"
	"genio/internal/orchestrator"
	"genio/internal/rbac"
	"genio/internal/trace"
)

// stressPlatform builds a secure multi-node platform with a trusted
// publisher, a signed clean image, and per-tenant deploy rights.
func stressPlatform(t *testing.T, nodes int, tenants []string) *Platform {
	t.Helper()
	p, err := New(SecureConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	for i := 0; i < nodes; i++ {
		if _, err := p.AddEdgeNode(fmt.Sprintf("olt-%02d", i), orchestrator.Resources{CPUMilli: 1 << 20, MemoryMB: 1 << 20}); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := container.NewPublisher("acme")
	if err != nil {
		t.Fatal(err)
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	img := container.AnalyticsImage()
	sig := pub.Sign(img)
	p.Registry.Push(img, &sig)

	var perms []rbac.Permission
	for _, tenant := range tenants {
		perms = append(perms, rbac.Permission{Verb: "create", Resource: "workloads", Namespace: tenant})
		p.Cluster.SetQuota(tenant, orchestrator.Resources{}) // unlimited: the test floods on purpose
	}
	p.RBAC.SetRole(rbac.Role{Name: "stress-deployer", Permissions: perms})
	if err := p.RBAC.Bind("ci", "stress-deployer"); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConcurrentDeployObserveAndRead is the pipeline stress test: deploys
// from N goroutines across nodes and tenants, concurrent ObserveRuntime
// streams, and constant readers. After Flush, no incident may be lost.
func TestConcurrentDeployObserveAndRead(t *testing.T) {
	const (
		deployers    = 4
		perDeployer  = 20
		observers    = 4
		perObserver  = 15
		shellBlocked = observers * perObserver // one sandbox block per trace
	)
	tenants := []string{"t0", "t1", "t2", "t3"}
	p := stressPlatform(t, 3, tenants)

	// One victim workload per observer, deployed up front so each has a
	// sandbox policy attached.
	for g := 0; g < observers; g++ {
		if _, err := p.DeployContext(context.Background(), "ci", orchestrator.WorkloadSpec{
			Name: fmt.Sprintf("victim-%d", g), Tenant: tenants[g%len(tenants)],
			ImageRef: "acme/analytics:2.0.1", Isolation: orchestrator.IsolationSoft,
			Resources: orchestrator.Resources{CPUMilli: 10, MemoryMB: 10},
		}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, deployers*perDeployer)

	for g := 0; g < deployers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perDeployer; i++ {
				_, err := p.DeployContext(context.Background(), "ci", orchestrator.WorkloadSpec{
					Name: fmt.Sprintf("w-%d-%d", g, i), Tenant: tenants[g%len(tenants)],
					ImageRef: "acme/analytics:2.0.1", Isolation: orchestrator.IsolationSoft,
					Resources: orchestrator.Resources{CPUMilli: 10, MemoryMB: 10},
				})
				if err != nil {
					errCh <- fmt.Errorf("deploy %d-%d: %w", g, i, err)
				}
			}
		}()
	}

	for g := 0; g < observers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			victim := fmt.Sprintf("victim-%d", g)
			tenant := tenants[g%len(tenants)]
			for i := 0; i < perObserver; i++ {
				events := trace.ReverseShellTrace(victim, tenant)
				if executed := p.ObserveRuntime(events); executed >= len(events) {
					errCh <- fmt.Errorf("observer %d: shell trace not truncated", g)
				}
			}
		}()
	}

	// Readers hammer every read-side query until the writers finish.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				p.Incidents()
				p.IncidentCounts()
				p.Cluster.Workloads()
				p.Cluster.VMs()
				p.Cluster.Utilization()
				p.Cluster.SharedVMTenants()
			}
		}()
	}

	wg.Wait()
	close(done)
	readers.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	p.Flush()
	counts := p.IncidentCounts()
	blocked := 0
	for _, i := range p.Incidents() {
		if i.Source == "sandbox" && i.Blocked {
			blocked++
		}
	}
	if blocked != shellBlocked {
		t.Fatalf("sandbox blocked %d shells, want %d (lost incidents?) counts=%v", blocked, shellBlocked, counts)
	}

	wantWorkloads := deployers*perDeployer + observers
	if got := len(p.Cluster.Workloads()); got != wantWorkloads {
		t.Fatalf("%d workloads, want %d", got, wantWorkloads)
	}
	admitted, rejected := p.Cluster.Counters()
	if admitted != wantWorkloads || rejected != 0 {
		t.Fatalf("counters = %d/%d, want %d/0", admitted, rejected, wantWorkloads)
	}
}

// TestDeployBatch checks positional results and that one bad spec never
// blocks its siblings.
func TestDeployBatch(t *testing.T) {
	p := stressPlatform(t, 2, []string{"acme"})
	specs := make([]orchestrator.WorkloadSpec, 0, 8)
	for i := 0; i < 8; i++ {
		specs = append(specs, orchestrator.WorkloadSpec{
			Name: fmt.Sprintf("batch-%d", i), Tenant: "acme",
			ImageRef: "acme/analytics:2.0.1", Isolation: orchestrator.IsolationSoft,
			Resources: orchestrator.Resources{CPUMilli: 10, MemoryMB: 10},
		})
	}
	specs[3].ImageRef = "ghost/unknown:0.0" // unpullable
	specs[6].Name = specs[0].Name           // duplicate: exactly one of 0/6 wins

	workloads, errs := p.DeployBatchContext(context.Background(), "ci", specs)
	if len(workloads) != len(specs) || len(errs) != len(specs) {
		t.Fatalf("result lengths %d/%d, want %d", len(workloads), len(errs), len(specs))
	}
	for i := range specs {
		switch i {
		case 0, 6:
			continue // racing pair, checked below
		case 3:
			if errs[i] == nil {
				t.Errorf("spec 3 should have failed to pull")
			}
		default:
			if errs[i] != nil {
				t.Errorf("spec %d: %v", i, errs[i])
			}
		}
		if (workloads[i] != nil) == (errs[i] != nil) {
			t.Errorf("spec %d: exactly one of workload/err must be set", i)
		}
	}
	// Specs 0 and 6 share a name and race; exactly one may win and the
	// loser must report the duplicate.
	if (errs[0] == nil) == (errs[6] == nil) {
		t.Fatalf("duplicate pair: errs[0]=%v errs[6]=%v, want exactly one winner", errs[0], errs[6])
	}
	loser := errs[0]
	if loser == nil {
		loser = errs[6]
	}
	if !errors.Is(loser, orchestrator.ErrDuplicateName) {
		t.Fatalf("duplicate loser err = %v, want ErrDuplicateName", loser)
	}
}

// TestIncidentBusSurvivesClose checks incidents recorded after Close
// still join the ledger rather than being lost.
func TestIncidentBusSurvivesClose(t *testing.T) {
	p, err := New(SecureConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.RecordIncident(Incident{Source: "test", Detail: "before close"})
	p.Close()
	p.Close() // idempotent
	p.RecordIncident(Incident{Source: "test", Detail: "after close"})
	if got := p.IncidentCounts()["test"]; got != 2 {
		t.Fatalf("recorded %d test incidents, want 2", got)
	}
}
