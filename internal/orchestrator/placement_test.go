package orchestrator

// Placement-engine integration: the cluster side of the scheduler
// pipeline — strategy selection, policy plumbing, the cached candidate
// slice, deterministic shared-VM reuse, and commit-window release.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"genio/internal/container"
)

// quadCluster is a 4-node fleet with one signed-free image, generous
// quota-free settings.
func quadCluster(t *testing.T, settings Settings) *Cluster {
	t.Helper()
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("quad", reg, settings)
	for i := 1; i <= 4; i++ {
		c.AddNode(fmt.Sprintf("olt-%02d", i), Resources{CPUMilli: 4000, MemoryMB: 8192})
	}
	return c
}

func policySpec(name, tenant, policy string) WorkloadSpec {
	return WorkloadSpec{
		Name: name, Tenant: tenant, ImageRef: "acme/analytics:2.0.1",
		Isolation: IsolationSoft, PlacementPolicy: policy,
		Resources: Resources{CPUMilli: 500, MemoryMB: 512},
	}
}

func nodesOf(c *Cluster) map[string]int {
	out := map[string]int{}
	for _, w := range c.Workloads() {
		out[w.Node]++
	}
	return out
}

func TestBinpackConcentratesSpreadFansOut(t *testing.T) {
	// Same fleet, same demand stream — only the policy differs. Binpack
	// must stack one node; spread must touch all four.
	bp := quadCluster(t, Settings{})
	for i := 0; i < 4; i++ {
		if _, err := bp.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("b%d", i), "acme", PlacementBinpack)); err != nil {
			t.Fatal(err)
		}
	}
	if got := nodesOf(bp); len(got) != 1 || got["olt-01"] != 4 {
		t.Fatalf("binpack placements = %v, want all 4 on olt-01", got)
	}

	sp := quadCluster(t, Settings{})
	for i := 0; i < 4; i++ {
		if _, err := sp.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("s%d", i), "acme", PlacementSpread)); err != nil {
			t.Fatal(err)
		}
	}
	if got := nodesOf(sp); len(got) != 4 {
		t.Fatalf("spread placements = %v, want one per node", got)
	}
}

func TestClusterDefaultStrategyFromSettings(t *testing.T) {
	c := quadCluster(t, Settings{PlacementStrategy: PlacementSpread})
	for i := 0; i < 4; i++ {
		w, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", ""))
		if err != nil {
			t.Fatal(err)
		}
		if w.Strategy != PlacementSpread {
			t.Fatalf("workload strategy = %q, want cluster default spread", w.Strategy)
		}
	}
	if got := nodesOf(c); len(got) != 4 {
		t.Fatalf("placements = %v, want one per node", got)
	}
	// A per-workload policy overrides the cluster default.
	w, err := c.DeployContext(context.Background(), "ops", policySpec("override", "acme", PlacementBinpack))
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy != PlacementBinpack {
		t.Fatalf("override strategy = %q", w.Strategy)
	}
}

func TestUnknownPlacementPolicyRejected(t *testing.T) {
	c := quadCluster(t, Settings{})
	_, err := c.DeployContext(context.Background(), "ops", policySpec("x", "acme", "chaotic"))
	var perr *PlacementPolicyError
	if !errors.As(err, &perr) || !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want *PlacementPolicyError under ErrRejected", err)
	}
	if _, rejected := c.Counters(); rejected != 1 {
		t.Fatalf("rejected counter = %d", rejected)
	}
	// The reservation was released: the name is reusable.
	if _, err := c.DeployContext(context.Background(), "ops", policySpec("x", "acme", PlacementBinpack)); err != nil {
		t.Fatalf("name not released after policy rejection: %v", err)
	}
	// A typo'd *cluster default* must be named in the error, not the
	// workload's empty per-deploy policy.
	cd := quadCluster(t, Settings{PlacementStrategy: "binpak"})
	_, err = cd.DeployContext(context.Background(), "ops", policySpec("y", "acme", ""))
	if !errors.As(err, &perr) || perr.Policy != "binpak" {
		t.Fatalf("err = %v, want PlacementPolicyError naming the cluster default", err)
	}
}

// TestInvalidPolicyRejectedBeforeScanning: a statically invalid policy
// must be refused before the expensive stages — no image pull, no
// admission chain — not discovered at scheduling time after the whole
// pipeline ran.
func TestInvalidPolicyRejectedBeforeScanning(t *testing.T) {
	c := quadCluster(t, Settings{})
	scans := 0
	c.RegisterAdmissionCtx("scan-counter", func(context.Context, WorkloadSpec, *container.Image) error {
		scans++
		return nil
	})
	_, err := c.DeployContext(context.Background(), "ops", policySpec("x", "acme", "chaotic"))
	var perr *PlacementPolicyError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v", err)
	}
	if scans != 0 {
		t.Fatalf("admission chain ran %d times for a statically invalid spec", scans)
	}
}

func TestWorkloadCarriesStrategyAndScore(t *testing.T) {
	c := quadCluster(t, Settings{})
	w, err := c.DeployContext(context.Background(), "ops", policySpec("scored", "acme", PlacementSpread))
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy != PlacementSpread || w.Score <= 0 {
		t.Fatalf("workload placement metadata = strategy %q score %v", w.Strategy, w.Score)
	}
}

// TestPlaceVMDeterministicSharedVMSelection is the regression test for
// the nondeterministic shared-VM pick: when a tenant has several shared
// VMs on one node (a state failovers and partial releases can leave
// behind), map iteration order used to choose the slot. The lowest VM
// ID must win, every time.
func TestPlaceVMDeterministicSharedVMSelection(t *testing.T) {
	for round := 0; round < 20; round++ {
		c := quadCluster(t, Settings{})
		// Manufacture two shared VMs for one tenant on olt-01.
		c.mu.Lock()
		n := c.nodes["olt-01"]
		n.mu.Lock()
		for _, id := range []string{"vm-900", "vm-100"} {
			n.addVMLocked(&VM{ID: id, Node: "olt-01", Tenant: "acme", Workloads: []string{"pre-" + id}})
		}
		n.countLocked(c.internLocked("acme"), 2)
		n.mu.Unlock()
		c.mu.Unlock()

		w, err := c.DeployContext(context.Background(), "ops", policySpec("newcomer", "acme", PlacementBinpack))
		if err != nil {
			t.Fatal(err)
		}
		if w.VMID != "vm-100" {
			t.Fatalf("round %d: shared-VM selection picked %s, want lowest ID vm-100", round, w.VMID)
		}
	}
}

// TestReleasePlacementCommitWindow covers the cancellation-in-commit-
// window path end to end: the node's capacity must return, the VM slot
// vacate, and an emptied shared VM disappear.
func TestReleasePlacementCommitWindow(t *testing.T) {
	c := quadCluster(t, Settings{})
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from the placing-stage observer: deploy's last cancellation
	// point then fires inside the commit window, after scheduling
	// succeeded — exactly the path releasePlacement exists for.
	_, err := c.DeployObserved(ctx, "ops", policySpec("ghost", "acme", ""), func(stage DeployStage) {
		if stage == StagePlacing {
			cancel()
		}
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if _, placed := c.Workload("ghost"); placed {
		t.Fatal("cancelled workload is placed")
	}
	for _, u := range c.Utilization() {
		if u.Used.CPUMilli != 0 || u.Used.MemoryMB != 0 || u.Workloads != 0 {
			t.Fatalf("capacity leaked on %s: %+v", u.Node, u)
		}
		if u.SharedVMs != 0 {
			t.Fatalf("emptied shared VM survived on %s", u.Node)
		}
	}
	if vms := c.VMs(); len(vms) != 0 {
		t.Fatalf("VM slots not vacated: %v", vms)
	}
	if use := c.TenantUsage("acme"); use.CPUMilli != 0 {
		t.Fatalf("tenant reservation leaked: %+v", use)
	}
}

// TestReleasePlacementKeepsOccupiedSharedVM: releasing one workload out
// of a shared VM vacates only its slot; the co-tenant workload and the
// VM itself stay.
func TestReleasePlacementKeepsOccupiedSharedVM(t *testing.T) {
	c := quadCluster(t, Settings{})
	survivor, err := c.DeployContext(context.Background(), "ops", policySpec("survivor", "acme", ""))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = c.DeployObserved(ctx, "ops", policySpec("doomed", "acme", ""), func(stage DeployStage) {
		if stage == StagePlacing {
			cancel()
		}
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	vms := c.VMs()
	if len(vms) != 1 || vms[0].ID != survivor.VMID {
		t.Fatalf("VMs after release = %+v", vms)
	}
	if len(vms[0].Workloads) != 1 || vms[0].Workloads[0] != "survivor" {
		t.Fatalf("shared VM slots = %v, want [survivor]", vms[0].Workloads)
	}
	util := c.Utilization()
	var cpu int
	for _, u := range util {
		cpu += u.Used.CPUMilli
	}
	if cpu != 500 {
		t.Fatalf("fleet usage = %d, want survivor's 500", cpu)
	}
}

func TestFailoverRespectsSpreadPolicy(t *testing.T) {
	// Five nodes, four spread workloads on the first four; kill one and
	// the victim must land on the idle fifth node (spread), not stack.
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("ha", reg, Settings{})
	for i := 1; i <= 5; i++ {
		c.AddNode(fmt.Sprintf("olt-%02d", i), Resources{CPUMilli: 4000, MemoryMB: 8192})
	}
	for i := 0; i < 4; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", PlacementSpread)); err != nil {
			t.Fatal(err)
		}
	}
	w0, _ := c.Workload("w0")
	res, err := c.FailNode(w0.Node)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rescheduled) != 1 {
		t.Fatalf("rescheduled = %v", res.Rescheduled)
	}
	moved, _ := c.Workload("w0")
	if moved.Node != "olt-05" {
		t.Fatalf("spread failover landed on %s, want idle olt-05", moved.Node)
	}
	if moved.Strategy != PlacementSpread || moved.Score <= 0 {
		t.Fatalf("failover placement metadata = %q/%v", moved.Strategy, moved.Score)
	}
}

func TestHardIsolationPrefersNodesWithoutSharedVMs(t *testing.T) {
	// Two nodes at equal utilization, one carrying a shared (soft) VM:
	// a hardened workload must land on the clean node.
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("posture", reg, Settings{})
	c.AddNode("n1", Resources{CPUMilli: 4000, MemoryMB: 8192})
	c.AddNode("n2", Resources{CPUMilli: 4000, MemoryMB: 8192})
	// Soft workload binpacks onto n1 (its shared VM taints the node's
	// posture); a dedicated decoy spreads onto n2 so both nodes carry
	// equal load and only the shared-VM count differs.
	if _, err := c.DeployContext(context.Background(), "ops", policySpec("soft-1", "acme", "")); err != nil {
		t.Fatal(err)
	}
	decoy := policySpec("decoy", "rival", PlacementSpread)
	decoy.Isolation = IsolationHard
	if w, err := c.DeployContext(context.Background(), "ops", decoy); err != nil || w.Node != "n2" {
		t.Fatalf("decoy placement: %v on %v, want n2", err, w)
	}
	hard := policySpec("hardened", "bank", "")
	hard.Isolation = IsolationHard
	w, err := c.DeployContext(context.Background(), "ops", hard)
	if err != nil {
		t.Fatal(err)
	}
	if w.Node != "n2" {
		t.Fatalf("hard-isolation workload landed on %s (shared-VM node), want n2", w.Node)
	}
}
