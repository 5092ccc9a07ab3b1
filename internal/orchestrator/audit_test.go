package orchestrator

import (
	"context"
	"sync"
	"testing"

	"genio/internal/container"
)

// auditRecorder collects audit events (sinks may be called from any
// operation goroutine).
type auditRecorder struct {
	mu  sync.Mutex
	evs []AuditEvent
}

func (r *auditRecorder) sink(a AuditEvent) {
	r.mu.Lock()
	r.evs = append(r.evs, a)
	r.mu.Unlock()
}

func (r *auditRecorder) byKind() map[string][]AuditEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]AuditEvent{}
	for _, e := range r.evs {
		out[e.Kind] = append(out[e.Kind], e)
	}
	return out
}

func auditCluster(t *testing.T) (*Cluster, *auditRecorder) {
	t.Helper()
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("audit", reg, Settings{})
	rec := &auditRecorder{}
	c.SetAuditSink(rec.sink)
	return c, rec
}

func auditSpec(name string) WorkloadSpec {
	return WorkloadSpec{
		Name: name, Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: IsolationSoft, Resources: Resources{CPUMilli: 100, MemoryMB: 100},
	}
}

func TestAuditTrailCoversLifecycle(t *testing.T) {
	c, rec := auditCluster(t)
	c.AddNode("n1", Resources{CPUMilli: 1000, MemoryMB: 1000})
	c.AddNode("n2", Resources{CPUMilli: 1000, MemoryMB: 1000})
	if _, err := c.DeployContext(context.Background(), "ops", auditSpec("w1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeployContext(context.Background(), "ops", auditSpec("w1")); err == nil { // duplicate
		t.Fatal("duplicate admitted")
	}
	if err := c.Stop("w1"); err != nil {
		t.Fatal(err)
	}

	kinds := rec.byKind()
	if got := len(kinds["node-join"]); got != 2 {
		t.Fatalf("node-join events = %d, want 2", got)
	}
	verdicts := kinds["admission-verdict"]
	if len(verdicts) != 2 {
		t.Fatalf("admission-verdict events = %d, want 2", len(verdicts))
	}
	var allowed, denied int
	for _, v := range verdicts {
		if v.Allowed {
			allowed++
		} else {
			denied++
			if v.Detail == "" {
				t.Fatal("denied verdict carries no reason")
			}
		}
	}
	if allowed != 1 || denied != 1 {
		t.Fatalf("verdicts allowed=%d denied=%d, want 1/1", allowed, denied)
	}
	placements := kinds["placement"]
	if len(placements) != 1 || placements[0].Node == "" {
		t.Fatalf("placement events = %+v, want one with a node", placements)
	}
	if got := len(kinds["workload-stop"]); got != 1 {
		t.Fatalf("workload-stop events = %d, want 1", got)
	}
}

func TestAuditTrailCoversFailover(t *testing.T) {
	c, rec := auditCluster(t)
	c.AddNode("n1", Resources{CPUMilli: 300, MemoryMB: 300})
	c.AddNode("n2", Resources{CPUMilli: 100, MemoryMB: 100})
	for _, n := range []string{"w1", "w2", "w3"} {
		if _, err := c.DeployContext(context.Background(), "ops", auditSpec(n)); err != nil {
			t.Fatal(err)
		}
	}
	// All three sit on n1 (first-fit); n2 can absorb exactly one.
	res, err := c.FailNode("n1")
	if err != nil {
		t.Fatal(err)
	}
	kinds := rec.byKind()
	if got := len(kinds["node-fail"]); got != 1 {
		t.Fatalf("node-fail events = %d, want 1", got)
	}
	if got := len(kinds["failover"]); got != len(res.Rescheduled) {
		t.Fatalf("failover events = %d, want %d", got, len(res.Rescheduled))
	}
	for _, e := range kinds["failover"] {
		if e.Node == "" || e.Tenant != "acme" || !e.Allowed {
			t.Fatalf("failover event incomplete: %+v", e)
		}
	}
	if got := len(kinds["eviction"]); got != len(res.Evicted) {
		t.Fatalf("eviction events = %d, want %d", got, len(res.Evicted))
	}
	for _, e := range kinds["eviction"] {
		if e.Allowed {
			t.Fatalf("eviction marked allowed: %+v", e)
		}
	}
}

// TestAuditSinkNil: clusters without a sink pay nothing and never panic.
func TestAuditSinkNil(t *testing.T) {
	c, _ := auditCluster(t)
	c.SetAuditSink(nil)
	c.AddNode("n1", Resources{CPUMilli: 1000, MemoryMB: 1000})
	if _, err := c.DeployContext(context.Background(), "ops", auditSpec("w1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop("w1"); err != nil {
		t.Fatal(err)
	}
}
