package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"genio/internal/container"
	"genio/internal/orchestrator"
)

const testImageRef = "acme/analytics:2.0.1"

// testRegistry holds one unsigned image; with insecure Settings{} the
// member clusters skip signature checks, so federated deploys exercise
// routing + scheduling only.
func testRegistry() *container.Registry {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	return reg
}

func testCluster(reg *container.Registry, name string, nodes int, capacity orchestrator.Resources) *orchestrator.Cluster {
	c := orchestrator.NewCluster(name, reg, orchestrator.Settings{})
	for i := 0; i < nodes; i++ {
		c.AddNode(fmt.Sprintf("%s-node-%02d", name, i), capacity)
	}
	return c
}

func testSpec(name, tenant, region string) orchestrator.WorkloadSpec {
	return orchestrator.WorkloadSpec{
		Name:      name,
		Tenant:    tenant,
		ImageRef:  testImageRef,
		Isolation: orchestrator.IsolationHard,
		Resources: orchestrator.Resources{CPUMilli: 100, MemoryMB: 128},
		Region:    region,
	}
}

// newTestFed builds a federation of name→region members, each with two
// generous nodes.
func newTestFed(t testing.TB, members map[string]string) (*Federation, *container.Registry) {
	t.Helper()
	reg := testRegistry()
	f := New(reg)
	for name, region := range members {
		if err := f.AddCluster(name, region, testCluster(reg, name, 2, orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384})); err != nil {
			t.Fatalf("AddCluster(%s): %v", name, err)
		}
	}
	return f, reg
}

func TestRegionPinningHardConstraint(t *testing.T) {
	f, _ := newTestFed(t, map[string]string{
		"edge-a": "west", "edge-b": "west", "edge-c": "east",
	})
	f.PinTenant("gov", "west")

	// A pinned tenant asking for a conflicting region is refused.
	_, _, err := f.DeployObserved(context.Background(), "ops", testSpec("wl-conflict", "gov", "east"), nil)
	var rpe *RegionPinnedError
	if !errors.As(err, &rpe) {
		t.Fatalf("cross-pin deploy: got %v, want *RegionPinnedError", err)
	}
	if rpe.Region != "west" || rpe.Requested != "east" {
		t.Fatalf("RegionPinnedError = %+v", rpe)
	}
	if !errors.Is(err, ErrRegionPinned) || !errors.Is(err, orchestrator.ErrRejected) {
		t.Fatalf("RegionPinnedError does not match its sentinels: %v", err)
	}

	// With no explicit region the pin routes the deploy inside west.
	for i := 0; i < 8; i++ {
		_, pl, err := f.DeployObserved(context.Background(), "ops", testSpec(fmt.Sprintf("wl-%d", i), "gov", ""), nil)
		if err != nil {
			t.Fatalf("pinned deploy %d: %v", i, err)
		}
		if region, _ := f.Region(pl.Cluster); region != "west" {
			t.Fatalf("pinned workload landed on %s (region %s)", pl.Cluster, region)
		}
	}
	if c, _ := f.Cluster("edge-c"); c.WorkloadCount() != 0 {
		t.Fatalf("east cluster holds %d pinned workloads", c.WorkloadCount())
	}

	// Matching the pin explicitly is fine; unpinning lifts the filter.
	if _, _, err := f.DeployObserved(context.Background(), "ops", testSpec("wl-match", "gov", "west"), nil); err != nil {
		t.Fatalf("pin-matching deploy: %v", err)
	}
	f.PinTenant("gov", "")
	if _, _, err := f.DeployObserved(context.Background(), "ops", testSpec("wl-free", "gov", "east"), nil); err != nil {
		t.Fatalf("deploy after unpin: %v", err)
	}
}

func TestUnknownRegionIsCapacityError(t *testing.T) {
	f, _ := newTestFed(t, map[string]string{"edge-a": "west"})
	_, _, err := f.DeployObserved(context.Background(), "ops", testSpec("wl-1", "acme", "mars"), nil)
	var fce *FederationCapacityError
	if !errors.As(err, &fce) {
		t.Fatalf("got %v, want *FederationCapacityError", err)
	}
	if fce.Clusters != 0 {
		t.Fatalf("eligible clusters = %d, want 0", fce.Clusters)
	}
	if !errors.Is(err, orchestrator.ErrNoCapacity) || !errors.Is(err, orchestrator.ErrRejected) {
		t.Fatalf("FederationCapacityError does not match its sentinels: %v", err)
	}
}

// TestBoundedLoadSpreadsHotKey deploys one (tenant, image) key many
// times: consistent hashing alone would pile every instance on the home
// cluster, the bounded-load rule must overflow past ceil((n+1)·1.25/4).
func TestBoundedLoadSpreadsHotKey(t *testing.T) {
	f, _ := newTestFed(t, map[string]string{
		"edge-a": "", "edge-b": "", "edge-c": "", "edge-d": "",
	})
	const total = 20
	for i := 0; i < total; i++ {
		if _, _, err := f.DeployObserved(context.Background(), "ops", testSpec(fmt.Sprintf("hot-%d", i), "acme", ""), nil); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	bound := ((total+1)*DefaultLoadFactorPct + 399) / 400
	loaded := 0
	for _, m := range f.Clusters() {
		if m.Workloads > bound {
			t.Fatalf("cluster %s holds %d > bound %d", m.Name, m.Workloads, bound)
		}
		if m.Workloads > 0 {
			loaded++
		}
	}
	if loaded < 2 {
		t.Fatalf("hot key never overflowed: only %d cluster(s) loaded", loaded)
	}
}

// TestCapacityOverflow fills the ring-order clusters one by one and
// checks the walk falls through, then that exhausting every cluster
// yields a FederationCapacityError wrapping the last per-cluster error.
func TestCapacityOverflow(t *testing.T) {
	reg := testRegistry()
	f := New(reg)
	// Each cluster fits exactly two 100m workloads.
	for _, name := range []string{"edge-a", "edge-b"} {
		if err := f.AddCluster(name, "", testCluster(reg, name, 1, orchestrator.Resources{CPUMilli: 200, MemoryMB: 1024})); err != nil {
			t.Fatal(err)
		}
	}
	// Loosen the load bound so only real capacity triggers overflow.
	f.loadFactorPct = 100000

	placed := map[string]int{}
	for i := 0; i < 4; i++ {
		_, pl, err := f.DeployObserved(context.Background(), "ops", testSpec(fmt.Sprintf("wl-%d", i), "acme", ""), nil)
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
		placed[pl.Cluster]++
	}
	if placed["edge-a"] != 2 || placed["edge-b"] != 2 {
		t.Fatalf("placements = %v, want 2 per cluster", placed)
	}
	_, _, err := f.DeployObserved(context.Background(), "ops", testSpec("wl-overflow", "acme", ""), nil)
	var fce *FederationCapacityError
	if !errors.As(err, &fce) {
		t.Fatalf("exhausted federation: got %v, want *FederationCapacityError", err)
	}
	if fce.Clusters != 2 || fce.Err == nil {
		t.Fatalf("FederationCapacityError = %+v, want 2 clusters walked and a wrapped cause", fce)
	}
}

// TestHardRejectionDoesNotOverflow: a content-determined rejection
// (admission denial) on the home cluster must surface as-is, never
// retried on the next ring position — every cluster would deny it too,
// and retrying would turn one audit denial into N.
func TestHardRejectionDoesNotOverflow(t *testing.T) {
	f, _ := newTestFed(t, map[string]string{"edge-a": "", "edge-b": "", "edge-c": ""})

	// Find the key's home cluster, then retire the probe.
	_, pl, err := f.DeployObserved(context.Background(), "ops", testSpec("probe", "acme", ""), nil)
	if err != nil {
		t.Fatalf("probe deploy: %v", err)
	}
	home, _ := f.Cluster(pl.Cluster)
	if err := home.Stop("probe"); err != nil {
		t.Fatalf("probe stop: %v", err)
	}

	// Only the home cluster denies; an overflow bug would land the
	// deploy on a permissive neighbour instead of failing.
	home.RegisterAdmissionCtx("test-deny", func(_ context.Context, spec orchestrator.WorkloadSpec, _ *container.Image) error {
		return fmt.Errorf("%w: test-deny rejects %s", orchestrator.ErrDenied, spec.Name)
	})
	_, _, err = f.DeployObserved(context.Background(), "ops", testSpec("probe", "acme", ""), nil)
	if !errors.Is(err, orchestrator.ErrDenied) {
		t.Fatalf("denied deploy: got %v, want ErrDenied", err)
	}
	for _, m := range f.Clusters() {
		if c, _ := f.Cluster(m.Name); c.WorkloadCount() != 0 {
			t.Fatalf("denied workload leaked onto %s", m.Name)
		}
	}
}

func TestEvacuateCluster(t *testing.T) {
	f, _ := newTestFed(t, map[string]string{
		"edge-a": "west", "edge-b": "west", "edge-c": "east",
	})
	f.PinTenant("gov", "west")
	var audits []orchestrator.AuditEvent
	var auditMu sync.Mutex
	f.SetAuditSink(func(ev orchestrator.AuditEvent) {
		auditMu.Lock()
		audits = append(audits, ev)
		auditMu.Unlock()
	})

	demand := orchestrator.Resources{CPUMilli: 100, MemoryMB: 128}
	for i := 0; i < 12; i++ {
		tenant := "acme"
		if i%3 == 0 {
			tenant = "gov"
		}
		if _, _, err := f.DeployObserved(context.Background(), "ops", testSpec(fmt.Sprintf("wl-%d", i), tenant, ""), nil); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	var victim string
	for _, m := range f.Clusters() {
		if m.Region == "west" && m.Workloads > 0 {
			victim = m.Name
			break
		}
	}
	if victim == "" {
		t.Fatal("no loaded west cluster to evacuate")
	}
	victimCluster, _ := f.Cluster(victim)
	victimCount := victimCluster.WorkloadCount()
	before := 0
	for _, m := range f.Clusters() {
		before += m.Workloads
	}

	res, err := f.EvacuateCluster("ops", victim)
	if err != nil {
		t.Fatalf("EvacuateCluster: %v", err)
	}
	if res.Cluster != victim {
		t.Fatalf("result names %s, evacuated %s", res.Cluster, victim)
	}
	if len(res.Moved)+len(res.Lost) != victimCount {
		t.Fatalf("moved %d + lost %d != victim's %d workloads", len(res.Moved), len(res.Lost), victimCount)
	}
	if len(res.Lost) != 0 {
		t.Fatalf("lost workloads with spare capacity: %+v", res.Lost)
	}
	if victimCluster.WorkloadCount() != 0 {
		t.Fatalf("evacuated cluster still holds %d workloads", victimCluster.WorkloadCount())
	}
	// No capacity leak: the dead site's accounting is fully released.
	for _, nu := range victimCluster.Utilization() {
		if nu.Used.CPUMilli != 0 || nu.Used.MemoryMB != 0 {
			t.Fatalf("evacuated node %s still accounts %+v", nu.Node, nu.Used)
		}
	}
	if len(f.Clusters()) != 2 {
		t.Fatalf("federation still lists %d clusters", len(f.Clusters()))
	}
	after := 0
	for _, m := range f.Clusters() {
		after += m.Workloads
		c, _ := f.Cluster(m.Name)
		for _, w := range c.Workloads() {
			if w.Spec.Tenant == "gov" {
				if region, _ := f.Region(m.Name); region != "west" {
					t.Fatalf("pinned workload %s leaked to %s (region %s)", w.Spec.Name, m.Name, region)
				}
			}
			if w.Spec.Resources != demand {
				t.Fatalf("workload %s re-placed with mutated resources %+v", w.Spec.Name, w.Spec.Resources)
			}
		}
	}
	if after != before {
		t.Fatalf("workload count changed across evacuation: %d -> %d", before, after)
	}

	auditMu.Lock()
	kinds := map[string]int{}
	for _, ev := range audits {
		kinds[ev.Kind]++
	}
	auditMu.Unlock()
	if kinds["evacuation"] != len(res.Moved) {
		t.Fatalf("audit carries %d evacuation events, want %d", kinds["evacuation"], len(res.Moved))
	}
	if kinds["cluster-evacuate"] != 1 {
		t.Fatalf("audit carries %d cluster-evacuate summaries, want 1", kinds["cluster-evacuate"])
	}

	if _, err := f.EvacuateCluster("ops", "nope"); !errors.Is(err, ErrClusterNotFound) || !errors.Is(err, orchestrator.ErrNotFound) {
		t.Fatalf("evacuating unknown cluster: %v", err)
	}
}

// TestEvacuatePinnedWithoutRefuge: when the evacuated cluster was the
// pinned tenant's only in-region home, its workloads are reported lost
// — never re-placed across the residency boundary.
func TestEvacuatePinnedWithoutRefuge(t *testing.T) {
	f, _ := newTestFed(t, map[string]string{"edge-a": "west", "edge-b": "east"})
	f.PinTenant("gov", "west")
	if _, pl, err := f.DeployObserved(context.Background(), "ops", testSpec("wl-gov", "gov", ""), nil); err != nil || pl.Cluster != "edge-a" {
		t.Fatalf("pinned deploy: %v (cluster %s)", err, pl.Cluster)
	}
	res, err := f.EvacuateCluster("ops", "edge-a")
	if err != nil {
		t.Fatalf("EvacuateCluster: %v", err)
	}
	if len(res.Moved) != 0 || len(res.Lost) != 1 {
		t.Fatalf("moved %d, lost %d — want the pinned workload lost", len(res.Moved), len(res.Lost))
	}
	east, _ := f.Cluster("edge-b")
	if east.WorkloadCount() != 0 {
		t.Fatal("pinned workload leaked across the region boundary during evacuation")
	}
}

func TestDuplicateCluster(t *testing.T) {
	f, reg := newTestFed(t, map[string]string{"edge-a": "west"})
	err := f.AddCluster("edge-a", "east", testCluster(reg, "edge-a", 1, orchestrator.Resources{CPUMilli: 1000, MemoryMB: 1024}))
	if !errors.Is(err, orchestrator.ErrDuplicateName) {
		t.Fatalf("duplicate AddCluster: %v", err)
	}
	if region, _ := f.Region("edge-a"); region != "west" || len(f.Clusters()) != 1 {
		t.Fatalf("duplicate AddCluster replaced the member: region %q, %d members", region, len(f.Clusters()))
	}
}

// requireNoStormErrors is the storm tests' contract for the deploys
// themselves: every member has capacity to spare, so every deploy must
// return nil. A race may re-route a deploy, never refuse it — the
// causeless FederationCapacityError ("no eligible cluster", wire 502) a
// stale load bound used to produce showed up only here.
func requireNoStormErrors(t *testing.T, errs []error) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Errorf("deploy %d refused with capacity to spare: %v (cause: %v)", i, err, errors.Unwrap(err))
		}
	}
}

// TestStaleBoundNeverRefuses is ROADMAP 0a made deterministic: other
// deploys commit onto every member between this deploy's bound
// computation and its ring walk, so every live count sits at or past
// the (now stale) bound. The bound is a balancing hint — the deploy
// must land on the least-loaded member, and only genuinely exhausted
// capacity may refuse, with its cause nested.
func TestStaleBoundNeverRefuses(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nodeCPU  int            // per member, one node; a workload takes 100
		parked   map[string]int // commits landing in the window, per member
		wantAt   string
		wantFull bool
	}{
		{"least-loaded-takes-it", 8000, map[string]int{"edge-a": 2, "edge-b": 1, "edge-c": 3}, "edge-b", false},
		{"really-full-still-refuses", 200, map[string]int{"edge-a": 2, "edge-b": 2, "edge-c": 2}, "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := testRegistry()
			f := New(reg)
			for name := range tc.parked {
				if err := f.AddCluster(name, "", testCluster(reg, name, 1, orchestrator.Resources{CPUMilli: tc.nodeCPU, MemoryMB: 16384})); err != nil {
					t.Fatal(err)
				}
			}
			// Fresh federation: total 0, bound ceil(1·1.25/3) = 1.
			f.afterBound = func() {
				for name, n := range tc.parked {
					c, _ := f.Cluster(name)
					for i := 0; i < n; i++ {
						if _, err := c.DeployContext(context.Background(), "ops", testSpec(fmt.Sprintf("parked-%s-%d", name, i), "acme", "")); err != nil {
							t.Errorf("parked deploy on %s: %v", name, err)
						}
					}
				}
			}
			_, pl, err := f.DeployObserved(context.Background(), "ops", testSpec("late", "acme", ""), nil)
			if tc.wantFull {
				var fce *FederationCapacityError
				if !errors.As(err, &fce) || fce.Err == nil || !errors.Is(fce.Err, orchestrator.ErrNoCapacity) {
					t.Fatalf("exhausted federation: err = %v, want *FederationCapacityError nesting ErrNoCapacity", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("deploy refused with capacity on every member: %v", err)
			}
			if pl.Cluster != tc.wantAt {
				t.Fatalf("placed on %s, want the least-loaded member %s", pl.Cluster, tc.wantAt)
			}
		})
	}
}

// TestEvacuateVsDeploy races an evacuation against a deploy storm under
// -race: afterwards the evacuated cluster is empty and every successful
// deploy (and every moved workload) lives on exactly one survivor.
func TestEvacuateVsDeploy(t *testing.T) {
	f, _ := newTestFed(t, map[string]string{"edge-a": "", "edge-b": "", "edge-c": ""})
	const deploys = 60
	success := make([]bool, deploys)
	stormErrs := make([]error, deploys)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < deploys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, _, err := f.DeployObserved(context.Background(), "ops", testSpec(fmt.Sprintf("wl-%d", i), fmt.Sprintf("tenant-%d", i%7), ""), nil)
			stormErrs[i], success[i] = err, err == nil
		}(i)
	}
	victimCluster, _ := f.Cluster("edge-b")
	var res *EvacuationResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		r, err := f.EvacuateCluster("ops", "edge-b")
		if err != nil {
			t.Errorf("EvacuateCluster: %v", err)
			return
		}
		res = r
	}()
	close(start)
	wg.Wait()
	requireNoStormErrors(t, stormErrs)

	if res == nil {
		t.Fatal("no evacuation result")
	}
	if len(res.Lost) != 0 {
		t.Fatalf("evacuation lost workloads with spare capacity: %+v", res.Lost)
	}
	if n := victimCluster.WorkloadCount(); n != 0 {
		t.Fatalf("evacuated cluster holds %d workloads — deploys landed after detach", n)
	}
	held := map[string]map[string]bool{}
	for _, m := range f.Clusters() {
		c, _ := f.Cluster(m.Name)
		ws := map[string]bool{}
		for _, w := range c.Workloads() {
			ws[w.Spec.Name] = true
		}
		held[m.Name] = ws
	}
	for i, ok := range success {
		if !ok {
			continue
		}
		name := fmt.Sprintf("wl-%d", i)
		count := 0
		for _, ws := range held {
			if ws[name] {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("workload %s exists on %d surviving clusters, want exactly 1", name, count)
		}
	}
}
