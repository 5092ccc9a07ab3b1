package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"genio/internal/container"
)

func warmSettings() Settings {
	return Settings{WarmPoolEnabled: true}
}

func nodeUtil(t *testing.T, c *Cluster, name string) NodeUtilization {
	t.Helper()
	for _, u := range c.Utilization() {
		if u.Node == name {
			return u
		}
	}
	t.Fatalf("node %s not in utilization report", name)
	return NodeUtilization{}
}

func TestWarmClaimReusesParkedVM(t *testing.T) {
	c, _ := testCluster(t, warmSettings())
	first, err := c.DeployContext(context.Background(), "ops", spec("a", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stop("a"); err != nil {
		t.Fatal(err)
	}
	if n := c.WarmSlotCount(); n != 1 {
		t.Fatalf("idle slots after stop = %d, want 1 (sole-occupant VM parks)", n)
	}
	// The parked slot keeps its node reservation but releases the tenant
	// quota: warm capacity is the node's cost, not the tenant's.
	if use := c.TenantUsage("acme"); use.CPUMilli != 0 {
		t.Fatalf("tenant usage with parked slot = %+v, want zero", use)
	}
	u := nodeUtil(t, c, first.Node)
	if u.Used.CPUMilli != 500 || u.Workloads != 0 || u.WarmIdle != 1 {
		t.Fatalf("node util with parked slot = %+v, want 500m reserved, 0 workloads, 1 warm idle", u)
	}

	second, err := c.DeployContext(context.Background(), "ops", spec("b", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if second.Strategy != "warm" {
		t.Fatalf("repeat deploy strategy = %q, want warm", second.Strategy)
	}
	if second.VMID != first.VMID || second.Node != first.Node {
		t.Fatalf("claim revived (%s on %s), want the parked VM %s on %s",
			second.VMID, second.Node, first.VMID, first.Node)
	}
	if got := c.WarmCounters(); got.Hits != 1 {
		t.Fatalf("counters = %+v, want 1 hit", got)
	}
	// The claim re-charges the tenant and keeps node usage flat (the
	// reservation transferred from the slot to the workload).
	if use := c.TenantUsage("acme"); use.CPUMilli != 500 {
		t.Fatalf("tenant usage after claim = %+v, want 500m", use)
	}
	u = nodeUtil(t, c, first.Node)
	if u.Used.CPUMilli != 500 || u.Workloads != 1 || u.WarmIdle != 0 || u.WarmClaimed != 1 {
		t.Fatalf("node util after claim = %+v", u)
	}
}

func TestWarmClaimRequiresMatchingShape(t *testing.T) {
	c, _ := testCluster(t, warmSettings())
	if _, err := c.DeployContext(context.Background(), "ops", spec("a", "acme", "acme/analytics:2.0.1", IsolationHard)); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop("a"); err != nil {
		t.Fatal(err)
	}

	// A soft-isolation deploy must not claim the dedicated slot.
	soft, err := c.DeployContext(context.Background(), "ops", spec("b", "acme", "acme/analytics:2.0.1", IsolationSoft))
	if err != nil {
		t.Fatal(err)
	}
	if soft.Strategy == "warm" {
		t.Fatal("soft deploy claimed a dedicated (hard-isolation) slot")
	}
	// A different resource shape must not claim it either.
	big := spec("c", "acme", "acme/analytics:2.0.1", IsolationHard)
	big.Resources = Resources{CPUMilli: 1000, MemoryMB: 1024}
	w, err := c.DeployContext(context.Background(), "ops", big)
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy == "warm" {
		t.Fatal("deploy with a different resource shape claimed the slot")
	}
	// Another tenant must never see the pool at all.
	rival, err := c.DeployContext(context.Background(), "ops", spec("d", "rival", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if rival.Strategy == "warm" {
		t.Fatal("cross-tenant deploy claimed the slot")
	}
	if n := c.WarmSlotCount(); n != 1 {
		t.Fatalf("idle slots = %d, want the unmatched slot still parked", n)
	}
	if got := c.WarmCounters(); got.Hits != 0 || got.Misses < 3 {
		t.Fatalf("counters = %+v, want 0 hits and >=3 misses", got)
	}
}

func TestWarmClaimRevalidatesVerdictCache(t *testing.T) {
	c, _ := testCluster(t, warmSettings())
	var scans int
	c.RegisterAdmissionCachedCtx("scanner", func(context.Context, WorkloadSpec, *container.Image) error {
		scans++
		return nil
	})
	if _, err := c.DeployContext(context.Background(), "ops", spec("a", "acme", "acme/analytics:2.0.1", IsolationHard)); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop("a"); err != nil {
		t.Fatal(err)
	}

	// Disabling the verdict cache kills the fast path: a warm claim
	// requires a *cached* clean verdict by contract.
	c.AdmissionCacheDisabled = true
	w, err := c.DeployContext(context.Background(), "ops", spec("b", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy == "warm" {
		t.Fatal("claim went through with the verdict cache disabled")
	}
	if scans != 2 {
		t.Fatalf("scanner ran %d times, want 2 (cache disabled forces a rescan)", scans)
	}

	// Re-enabled, the parked slot is claimable again.
	c.AdmissionCacheDisabled = false
	if err := c.Stop("b"); err != nil {
		t.Fatal(err)
	}
	w, err = c.DeployContext(context.Background(), "ops", spec("c", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy != "warm" {
		t.Fatalf("strategy = %q, want warm once the cache is back", w.Strategy)
	}
}

func TestWarmClaimMissesOnTamperedImage(t *testing.T) {
	c, reg := testCluster(t, warmSettings())
	if _, err := c.DeployContext(context.Background(), "ops", spec("a", "acme", "acme/analytics:2.0.1", IsolationHard)); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop("a"); err != nil {
		t.Fatal(err)
	}

	// Republish the ref with injected content. Image.Digest is computed
	// fresh on every deploy — never memoized — so the tampered manifest
	// hashes to a different digest and the warm pool key cannot match.
	evil := container.AnalyticsImage()
	evil.Config.Env = append(evil.Config.Env, "LD_PRELOAD=/tmp/inject.so")
	reg.Push(evil, nil)

	w, err := c.DeployContext(context.Background(), "ops", spec("b", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy == "warm" {
		t.Fatal("tampered image claimed a warm slot parked for the clean digest")
	}
	if got := c.WarmCounters(); got.Hits != 0 {
		t.Fatalf("counters = %+v, want no hits", got)
	}
}

func TestWarmWatermarkEviction(t *testing.T) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("edge", reg, Settings{
		WarmPoolEnabled:          true,
		WarmPoolHighWatermarkPct: 50,
		WarmPoolLowWatermarkPct:  25,
	})
	c.AddNode("olt-01", Resources{CPUMilli: 4000, MemoryMB: 8192})

	// Five 500m workloads put the node at 62.5% — over the 50% high
	// watermark — so the first park must be evicted immediately (LRU,
	// and it is the only idle slot), releasing its reservation.
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("w%d", i)
		if _, err := c.DeployContext(context.Background(), "ops", spec(name, "acme", "acme/analytics:2.0.1", IsolationHard)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Stop("w4"); err != nil {
		t.Fatal(err)
	}
	if n := c.WarmSlotCount(); n != 0 {
		t.Fatalf("idle slots above watermark = %d, want 0 (evicted at park)", n)
	}
	if got := c.WarmCounters(); got.Evicted != 1 {
		t.Fatalf("counters = %+v, want 1 eviction", got)
	}
	u := nodeUtil(t, c, "olt-01")
	if u.Used.CPUMilli != 2000 {
		t.Fatalf("node used after eviction = %+v, want 2000m (reservation released)", u.Used)
	}

	// At 50% the node sits exactly on the watermark (not over), so the
	// next park sticks.
	if err := c.Stop("w3"); err != nil {
		t.Fatal(err)
	}
	if n := c.WarmSlotCount(); n != 1 {
		t.Fatalf("idle slots at watermark = %d, want 1", n)
	}
}

func TestWarmPressureReclaimUnderCapacityError(t *testing.T) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	// Watermarks at 100% disarm the park-time evictor, so only the
	// capacity-pressure reclaim can free the slots.
	c := NewCluster("edge", reg, Settings{
		WarmPoolEnabled:          true,
		WarmPoolHighWatermarkPct: 100,
		WarmPoolLowWatermarkPct:  100,
	})
	c.AddNode("olt-01", Resources{CPUMilli: 2000, MemoryMB: 8192})

	// Fill the node, then park everything: 4 idle slots hold all 2000m.
	for i := 0; i < 4; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", spec(fmt.Sprintf("w%d", i), "acme", "acme/analytics:2.0.1", IsolationHard)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := c.Stop(fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.WarmSlotCount(); n != 4 {
		t.Fatalf("idle slots = %d, want 4", n)
	}

	// A deploy the slots cannot satisfy (different shape, so no claim)
	// finds the node full — the scheduler's capacity error must trigger
	// the pressure reclaim, evict idle slots, and retry successfully.
	big := spec("big", "acme", "acme/analytics:2.0.1", IsolationHard)
	big.Resources = Resources{CPUMilli: 1500, MemoryMB: 1024}
	w, err := c.DeployContext(context.Background(), "ops", big)
	if err != nil {
		t.Fatalf("deploy under warm pressure: %v", err)
	}
	if w.Strategy == "warm" {
		t.Fatal("mismatched shape should not have claimed a slot")
	}
	if got := c.WarmCounters(); got.Evicted == 0 {
		t.Fatalf("counters = %+v, want pressure evictions", got)
	}
	u := nodeUtil(t, c, "olt-01")
	if u.Used.CPUMilli > 2000 {
		t.Fatalf("node oversubscribed: %+v", u.Used)
	}
}

func TestWarmCordonFlushAndUncordonVisibility(t *testing.T) {
	c, _ := testCluster(t, warmSettings())
	first, err := c.DeployContext(context.Background(), "ops", spec("a", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stop("a"); err != nil {
		t.Fatal(err)
	}

	// Cordoning the node flushes its parked slots and their reservations.
	if err := c.Cordon(first.Node); err != nil {
		t.Fatal(err)
	}
	if n := c.WarmSlotCount(); n != 0 {
		t.Fatalf("idle slots on cordoned node = %d, want 0", n)
	}
	if got := c.WarmCounters(); got.Flushed != 1 {
		t.Fatalf("counters = %+v, want 1 flush", got)
	}
	if u := nodeUtil(t, c, first.Node); u.Used.CPUMilli != 0 {
		t.Fatalf("cordoned node still holds reservation: %+v", u.Used)
	}

	// While cordoned, repeat deploys go cold to another node.
	other, err := c.DeployContext(context.Background(), "ops", spec("b", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if other.Strategy == "warm" || other.Node == first.Node {
		t.Fatalf("deploy after cordon = %+v, want cold placement elsewhere", other)
	}

	// After uncordon, slots park on the node again and are claimable.
	if err := c.Uncordon(first.Node); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop("b"); err != nil {
		t.Fatal(err)
	}
	w, err := c.DeployContext(context.Background(), "ops", spec("c", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy != "warm" {
		t.Fatalf("post-uncordon repeat deploy strategy = %q, want warm", w.Strategy)
	}
}

func TestWarmNodeFailDiscardsSlots(t *testing.T) {
	c, _ := testCluster(t, warmSettings())
	first, err := c.DeployContext(context.Background(), "ops", spec("a", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stop("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailNode(first.Node); err != nil {
		t.Fatal(err)
	}
	if n := c.WarmSlotCount(); n != 0 {
		t.Fatalf("idle slots after node failure = %d, want 0", n)
	}
	// The dead node's slots are gone for good: a repeat deploy goes cold.
	w, err := c.DeployContext(context.Background(), "ops", spec("b", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy == "warm" {
		t.Fatal("claimed a slot from a failed node")
	}
}

func TestWarmStateImportStartsCold(t *testing.T) {
	c, reg := testCluster(t, warmSettings())
	if _, err := c.DeployContext(context.Background(), "ops", spec("a", "acme", "acme/analytics:2.0.1", IsolationHard)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeployContext(context.Background(), "ops", spec("b", "acme", "acme/analytics:2.0.1", IsolationHard)); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop("a"); err != nil {
		t.Fatal(err)
	}
	if c.WarmSlotCount() != 1 {
		t.Fatal("expected one parked slot before export")
	}

	// Kill-restart: rebuild a cluster from the exported control-plane
	// state. Warm slots are deliberately not part of ClusterState, and
	// recovered node usage must not include the dead pool's reservations.
	st := c.ExportState()
	c2 := NewCluster("edge", reg, warmSettings())
	c2.ImportState(st, func(ref string) *container.Image {
		img, err := reg.Pull(ref)
		if err != nil {
			return nil
		}
		return img
	})
	if n := c2.WarmSlotCount(); n != 0 {
		t.Fatalf("recovered cluster has %d warm slots, want 0 (pool restarts cold)", n)
	}
	if got := c2.WarmCounters(); got.Hits != 0 || got.Misses != 0 || got.Evicted != 0 || got.Flushed != 0 {
		t.Fatalf("recovered counters = %+v, want zero", got)
	}
	// The surviving workload b is intact; the first repeat deploy after
	// recovery is a miss (cold), then the pool works again.
	w, err := c2.DeployContext(context.Background(), "ops", spec("c", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy == "warm" {
		t.Fatal("claim after cold restart — warm slots leaked through recovery")
	}
	if err := c2.Stop("c"); err != nil {
		t.Fatal(err)
	}
	w, err = c2.DeployContext(context.Background(), "ops", spec("d", "acme", "acme/analytics:2.0.1", IsolationHard))
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy != "warm" {
		t.Fatalf("post-recovery repeat deploy strategy = %q, want warm", w.Strategy)
	}
}

// TestWarmClaimRacingEviction churns deploy/stop cycles (parks racing
// claims) against concurrent full-pool flushes and cordon flips. Run
// under -race this pins the claim/evict locking; the final accounting
// check pins that every reservation was settled by exactly one owner.
func TestWarmClaimRacingEviction(t *testing.T) {
	c, _ := testCluster(t, warmSettings())
	const workers = 4
	const rounds = 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("wl-%d-%d", g, i)
				_, err := c.DeployContext(context.Background(), "ops", spec(name, "acme", "acme/analytics:2.0.1", IsolationHard))
				if err != nil {
					var cap *CapacityError
					if errors.As(err, &cap) {
						continue // parked slots can transiently hold the capacity
					}
					t.Errorf("deploy %s: %v", name, err)
					return
				}
				if err := c.Stop(name); err != nil {
					t.Errorf("stop %s: %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			c.FlushWarmSlots("close")
			if i%10 == 5 {
				_ = c.Cordon("olt-01")
				_ = c.Uncordon("olt-01")
			}
		}
	}()
	wg.Wait()

	c.FlushWarmSlots("close")
	if n := c.WarmSlotCount(); n != 0 {
		t.Fatalf("idle slots after final flush = %d, want 0", n)
	}
	for _, u := range c.Utilization() {
		if u.Used.CPUMilli != 0 || u.Used.MemoryMB != 0 {
			t.Fatalf("node %s leaked capacity: %+v", u.Node, u.Used)
		}
	}
	if use := c.TenantUsage("acme"); use.CPUMilli != 0 {
		t.Fatalf("tenant quota leaked: %+v", use)
	}
}

// TestWarmDrainRacingClaims drains nodes while deploy/stop churn runs:
// the drain must flush parked slots before its migration accounting, and
// concurrent claims must either win a slot or go cold — never revive a
// VM on the draining node after its cordon.
func TestWarmDrainRacingClaims(t *testing.T) {
	c, _ := testCluster(t, warmSettings())
	const workers = 4
	const rounds = 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("wl-%d-%d", g, i)
				_, err := c.DeployContext(context.Background(), "ops", spec(name, "acme", "acme/analytics:2.0.1", IsolationHard))
				if err != nil {
					continue // capacity or cordon pressure mid-drain is expected
				}
				if err := c.Stop(name); err != nil {
					t.Errorf("stop %s: %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			node := "olt-01"
			if i%2 == 1 {
				node = "olt-02"
			}
			if _, err := c.Drain(context.Background(), node); err != nil &&
				!errors.Is(err, ErrNoCapacity) && !errors.Is(err, ErrNotFound) {
				t.Errorf("drain %s: %v", node, err)
				return
			}
			_ = c.Uncordon(node)
		}
	}()
	wg.Wait()

	// Quiesced: park whatever is still running, then verify cordoned and
	// drained nodes hold no idle slots and nothing double-booked a VM.
	for _, w := range c.Workloads() {
		if err := c.Stop(w.Spec.Name); err != nil {
			t.Fatalf("final stop %s: %v", w.Spec.Name, err)
		}
	}
	seen := map[string]bool{}
	for _, s := range c.WarmIdleSlots() {
		if seen[s.VMID] {
			t.Fatalf("VM %s parked twice", s.VMID)
		}
		seen[s.VMID] = true
	}
	c.FlushWarmSlots("close")
	for _, u := range c.Utilization() {
		if u.Used.CPUMilli != 0 || u.Used.MemoryMB != 0 {
			t.Fatalf("node %s leaked capacity after drain storm: %+v", u.Node, u.Used)
		}
	}
}
