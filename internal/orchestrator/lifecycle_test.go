package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"genio/internal/container"
)

func utilOf(c *Cluster, node string) NodeUtilization {
	for _, u := range c.Utilization() {
		if u.Node == node {
			return u
		}
	}
	return NodeUtilization{}
}

// checkAccounting recomputes every node's usage and tenant charges from
// the workload table — the no-leak oracle drain tests assert after
// every outcome.
func checkAccounting(t *testing.T, c *Cluster, tenants ...string) {
	t.Helper()
	wantNode := map[string]Resources{}
	wantTenant := map[string]Resources{}
	for _, w := range c.Workloads() {
		wantNode[w.Node] = wantNode[w.Node].Add(w.Spec.Resources)
		wantTenant[w.Spec.Tenant] = wantTenant[w.Spec.Tenant].Add(w.Spec.Resources)
	}
	for _, u := range c.Utilization() {
		if u.Used != wantNode[u.Node] {
			t.Fatalf("node %s accounts %+v, workloads sum to %+v", u.Node, u.Used, wantNode[u.Node])
		}
	}
	for _, tenant := range tenants {
		if got := c.TenantUsage(tenant); got != wantTenant[tenant] {
			t.Fatalf("tenant %s accounts %+v, workloads sum to %+v", tenant, got, wantTenant[tenant])
		}
	}
}

func TestCordonExcludesNodeFromScheduling(t *testing.T) {
	c := quadCluster(t, Settings{})
	if err := c.Cordon("olt-01"); err != nil {
		t.Fatal(err)
	}
	w, err := c.DeployContext(context.Background(), "ops", policySpec("w", "acme", PlacementBinpack))
	if err != nil {
		t.Fatal(err)
	}
	if w.Node == "olt-01" {
		t.Fatal("workload placed on cordoned node")
	}
	if !utilOf(c, "olt-01").Cordoned {
		t.Fatal("utilization does not report cordon")
	}
	if err := c.Uncordon("olt-01"); err != nil {
		t.Fatal(err)
	}
	w2, err := c.DeployContext(context.Background(), "ops", policySpec("w2", "acme", PlacementBinpack))
	if err != nil {
		t.Fatal(err)
	}
	// Binpack returns to the most-utilized feasible node — w's node —
	// but olt-01 is schedulable again (verified by cordoning the rest).
	_ = w2
	for _, n := range []string{"olt-02", "olt-03", "olt-04"} {
		if err := c.Cordon(n); err != nil {
			t.Fatal(err)
		}
	}
	w3, err := c.DeployContext(context.Background(), "ops", policySpec("w3", "acme", PlacementBinpack))
	if err != nil {
		t.Fatal(err)
	}
	if w3.Node != "olt-01" {
		t.Fatalf("uncordoned node not schedulable: placed on %s", w3.Node)
	}
}

func TestCordonAllNodesYieldsCapacityError(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 1; i <= 4; i++ {
		if err := c.Cordon(fmt.Sprintf("olt-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.DeployContext(context.Background(), "ops", policySpec("w", "acme", "")); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestCordonUnknownNode(t *testing.T) {
	c := quadCluster(t, Settings{})
	var nf *NodeNotFoundError
	if err := c.Cordon("ghost"); !errors.As(err, &nf) {
		t.Fatalf("err = %v", err)
	}
	if err := c.Uncordon("ghost"); !errors.As(err, &nf) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Drain(context.Background(), "ghost"); !errors.As(err, &nf) {
		t.Fatalf("err = %v", err)
	}
}

func TestDrainMigratesEverythingAndLeavesNodeCordoned(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 0; i < 4; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	// Binpack stacked everything on olt-01.
	if got := nodesOf(c); got["olt-01"] != 4 {
		t.Fatalf("precondition: placements = %v", got)
	}
	var events []DrainEvent
	res, err := c.DrainObserved(context.Background(), "olt-01", func(ev DrainEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrated) != 4 || len(res.Remaining) != 0 || res.Cancelled {
		t.Fatalf("result = %+v", res)
	}
	// Migration order is deterministic: lowest name first.
	for i, wl := range res.Migrated {
		if want := fmt.Sprintf("w%d", i); wl != want {
			t.Fatalf("migration order %v, want w0..w3", res.Migrated)
		}
	}
	if got := nodesOf(c); got["olt-01"] != 0 || len(c.Workloads()) != 4 {
		t.Fatalf("placements after drain = %v", got)
	}
	u := utilOf(c, "olt-01")
	if !u.Cordoned || u.Used.CPUMilli != 0 || u.Workloads != 0 || u.SharedVMs != 0 {
		t.Fatalf("drained node state = %+v", u)
	}
	checkAccounting(t, c, "acme")
	// Event stream: cordoned, one migrated per workload, completed.
	if len(events) != 6 || events[0].Phase != DrainCordoned || events[5].Phase != DrainCompleted {
		t.Fatalf("events = %+v", events)
	}
	for _, ev := range events[1:5] {
		if ev.Phase != DrainMigrated || ev.Target == "olt-01" || ev.Score <= 0 {
			t.Fatalf("migration event = %+v", ev)
		}
	}
}

func TestDrainCancelMidMigrationRollsBack(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 0; i < 4; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	migrated := 0
	res, err := c.DrainObserved(ctx, "olt-01", func(ev DrainEvent) {
		if ev.Phase == DrainMigrated {
			if migrated++; migrated == 2 {
				cancel() // next migration boundary must stop
			}
		}
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	var cerr *CancelledError
	if !errors.As(err, &cerr) || cerr.Stage != "drain" {
		t.Fatalf("err = %v, want CancelledError at drain stage", err)
	}
	if !res.Cancelled || len(res.Migrated) != 2 || len(res.Remaining) != 2 {
		t.Fatalf("result = %+v", res)
	}
	// Rollback: the drain's own cordon is lifted, the node schedulable
	// again; completed migrations stay; nothing leaked.
	if utilOf(c, "olt-01").Cordoned {
		t.Fatal("cancelled drain left its cordon in place")
	}
	if got := nodesOf(c); got["olt-01"] != 2 {
		t.Fatalf("placements after cancelled drain = %v", got)
	}
	checkAccounting(t, c, "acme")
}

func TestDrainKeepsPreexistingCordonOnCancel(t *testing.T) {
	c := quadCluster(t, Settings{})
	if _, err := c.DeployContext(context.Background(), "ops", policySpec("w", "acme", "")); err != nil {
		t.Fatal(err)
	}
	if err := c.Cordon("olt-01"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first migration
	res, err := c.Drain(ctx, "olt-01")
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	if len(res.Migrated) != 0 || len(res.Remaining) != 1 {
		t.Fatalf("result = %+v", res)
	}
	// The operator's cordon predates the drain: rollback must not lift it.
	if !utilOf(c, "olt-01").Cordoned {
		t.Fatal("pre-existing cordon lifted by drain rollback")
	}
	checkAccounting(t, c, "acme")
}

func TestDrainFailsWhenWorkloadFitsNowhereAndRollsBack(t *testing.T) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("tight", reg, Settings{})
	c.AddNode("n1", Resources{CPUMilli: 4000, MemoryMB: 8192})
	c.AddNode("n2", Resources{CPUMilli: 600, MemoryMB: 1024}) // room for one only
	// Spread favours the roomy n1 for all three (n2 would run too hot),
	// so the drain source carries everything.
	for i := 0; i < 3; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", PlacementSpread)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Drain(context.Background(), "n1")
	var derr *DrainError
	if !errors.As(err, &derr) || !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want *DrainError wrapping ErrNoCapacity", err)
	}
	if len(res.Migrated) != 1 || len(res.Remaining) != 2 {
		t.Fatalf("result = %+v", res)
	}
	// Rollback: n1 schedulable again, no workload lost, accounting clean.
	if utilOf(c, "n1").Cordoned {
		t.Fatal("failed drain left n1 cordoned")
	}
	if len(c.Workloads()) != 3 {
		t.Fatalf("workloads = %d, want 3 (none lost)", len(c.Workloads()))
	}
	checkAccounting(t, c, "acme")
}

// TestUncordonMidDrainStillEvacuates: an operator Uncordon while a
// drain is mid-flight must not make the drain migrate workloads back
// onto its own source (livelock + VM-table corruption in the unfixed
// code): the source node is excluded by name, so the evacuation
// completes.
func TestUncordonMidDrainStillEvacuates(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 0; i < 4; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	uncordoned := false
	res, err := c.DrainObserved(context.Background(), "olt-01", func(ev DrainEvent) {
		if ev.Phase == DrainMigrated && !uncordoned {
			uncordoned = true
			if uerr := c.Uncordon("olt-01"); uerr != nil {
				t.Errorf("mid-drain uncordon: %v", uerr)
			}
		}
	})
	if err != nil {
		t.Fatalf("drain fought the uncordon: %v", err)
	}
	if len(res.Migrated) != 4 {
		t.Fatalf("migrated = %v", res.Migrated)
	}
	for _, w := range c.Workloads() {
		if w.Node == "olt-01" {
			t.Fatalf("workload %s migrated back onto the drain source", w.Spec.Name)
		}
	}
	checkAccounting(t, c, "acme")
	// Every workload's VM slot must be coherent (the unfixed code could
	// strand a workload whose VM no longer lists it).
	byVM := map[string]map[string]bool{}
	for _, vm := range c.VMs() {
		byVM[vm.ID] = map[string]bool{}
		for _, wl := range vm.Workloads {
			byVM[vm.ID][wl] = true
		}
	}
	for _, w := range c.Workloads() {
		if !byVM[w.VMID][w.Spec.Name] {
			t.Fatalf("workload %s's VM %s does not list it", w.Spec.Name, w.VMID)
		}
	}
}

// TestDrainDeployCommitRace hammers the placement-to-commit window: a
// deploy that scheduled onto a node before its drain cordoned it must
// not commit there afterwards — the drain would have reported the node
// empty while the workload was still unregistered. After both finish,
// a successfully drained node holds nothing.
func TestDrainDeployCommitRace(t *testing.T) {
	for round := 0; round < 40; round++ {
		c := quadCluster(t, Settings{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
					t.Errorf("deploy w%d: %v", i, err)
				}
			}(i)
		}
		if _, err := c.Drain(context.Background(), "olt-01"); err != nil {
			t.Fatalf("drain: %v", err)
		}
		wg.Wait()
		for _, w := range c.Workloads() {
			if w.Node == "olt-01" {
				t.Fatalf("round %d: workload %s committed onto the drained node", round, w.Spec.Name)
			}
		}
		if u := utilOf(c, "olt-01"); u.Used.CPUMilli != 0 || u.Workloads != 0 {
			t.Fatalf("round %d: drained node still accounts %+v", round, u)
		}
		checkAccounting(t, c, "acme")
	}
}

// TestOperatorCordonMidDrainSurvivesRollback: an explicit Cordon
// issued while a drain is in flight claims the cordon state — a later
// drain cancellation must not lift it.
func TestOperatorCordonMidDrainSurvivesRollback(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 0; i < 3; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	res, err := c.DrainObserved(ctx, "olt-01", func(ev DrainEvent) {
		if ev.Phase == DrainMigrated {
			// The operator explicitly re-cordons (idempotent) mid-drain,
			// then the drain is cancelled.
			if cerr := c.Cordon("olt-01"); cerr != nil {
				t.Errorf("mid-drain cordon: %v", cerr)
			}
			cancel()
		}
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	if len(res.Remaining) == 0 {
		t.Fatalf("fixture: expected workloads left behind, got %+v", res)
	}
	if !utilOf(c, "olt-01").Cordoned {
		t.Fatal("drain rollback discarded the operator's explicit cordon")
	}
}

// TestCompletedDrainCordonSurvivesLaterRollback: the cordon a
// completed drain leaves behind is sticky — a second drain of the same
// node, even with a dead context, finds it empty, reports completion
// (the empty check beats the cancellation), and must not lift it.
func TestCompletedDrainCordonSurvivesLaterRollback(t *testing.T) {
	c := quadCluster(t, Settings{})
	if _, err := c.DeployContext(context.Background(), "ops", policySpec("w", "acme", "")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(context.Background(), "olt-01"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Drain(ctx, "olt-01")
	if err != nil || res.Cancelled || len(res.Migrated) != 0 {
		t.Fatalf("re-drain of empty node: res=%+v err=%v, want clean completion", res, err)
	}
	if !utilOf(c, "olt-01").Cordoned {
		t.Fatal("re-drain lifted the completed drain's cordon")
	}
}

// TestUncordonMidDrainNoDuplicateAudit: an operator Uncordon mid-drain
// followed by a drain abort must not emit a second node-uncordon — the
// audit trail keeps cordon/uncordon pairing.
func TestUncordonMidDrainNoDuplicateAudit(t *testing.T) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	c := NewCluster("tight", reg, Settings{})
	c.AddNode("n1", Resources{CPUMilli: 4000, MemoryMB: 8192})
	c.AddNode("n2", Resources{CPUMilli: 600, MemoryMB: 1024}) // room for one only
	for i := 0; i < 3; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", PlacementSpread)); err != nil {
			t.Fatal(err)
		}
	}
	var cordons, uncordons int
	c.SetAuditSink(func(a AuditEvent) {
		switch a.Kind {
		case "node-cordon":
			cordons++
		case "node-uncordon":
			uncordons++
		}
	})
	// n2 fits one migration; the second blocks on capacity. Mid-drain
	// the operator uncordons n1; the later abort must not uncordon again.
	var derr *DrainError
	_, err := c.DrainObserved(context.Background(), "n1", func(ev DrainEvent) {
		if ev.Phase == DrainMigrated {
			if uerr := c.Uncordon("n1"); uerr != nil {
				t.Errorf("mid-drain uncordon: %v", uerr)
			}
		}
	})
	if !errors.As(err, &derr) {
		t.Fatalf("err = %v, want *DrainError", err)
	}
	if cordons != 1 || uncordons != 1 {
		t.Fatalf("audit pairing broken: %d cordons, %d uncordons (want 1/1)", cordons, uncordons)
	}
	if utilOf(c, "n1").Cordoned {
		t.Fatal("node re-cordoned after explicit operator uncordon")
	}
}

// TestCancelledDrainCannotLiftAnotherDrainsCordon: drain A is paused
// mid-migration, the operator uncordons, drain B claims the node, and A
// is then cancelled — A's rollback must not lift B's cordon (the
// ownership token, not a boolean, decides).
func TestCancelledDrainCannotLiftAnotherDrainsCordon(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 0; i < 2; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	aMigrated, aGate := make(chan struct{}), make(chan struct{})
	actx, acancel := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	var aOnce sync.Once
	go func() {
		_, err := c.DrainObserved(actx, "olt-01", func(ev DrainEvent) {
			if ev.Phase == DrainMigrated {
				aOnce.Do(func() {
					close(aMigrated)
					<-aGate
				})
			}
		})
		aDone <- err
	}()
	<-aMigrated
	// Operator lifts A's cordon; drain B claims the node afresh and is
	// held right after its cordon lands.
	if err := c.Uncordon("olt-01"); err != nil {
		t.Fatal(err)
	}
	bCordoned, bGate := make(chan struct{}), make(chan struct{})
	bDone := make(chan error, 1)
	go func() {
		_, err := c.DrainObserved(context.Background(), "olt-01", func(ev DrainEvent) {
			if ev.Phase == DrainCordoned {
				close(bCordoned)
				<-bGate
			}
		})
		bDone <- err
	}()
	<-bCordoned
	// Cancel A while B is mid-flight: A's rollback runs against a cordon
	// it no longer owns.
	acancel()
	close(aGate)
	if err := <-aDone; !errors.Is(err, ErrCancelled) {
		t.Fatalf("drain A: %v, want cancelled", err)
	}
	if !utilOf(c, "olt-01").Cordoned {
		t.Fatal("drain A's rollback lifted drain B's cordon")
	}
	close(bGate)
	if err := <-bDone; err != nil {
		t.Fatalf("drain B: %v", err)
	}
	if !utilOf(c, "olt-01").Cordoned {
		t.Fatal("completed drain's cordon missing")
	}
	checkAccounting(t, c, "acme")
}

// TestCompletedOverlappingDrainCordonSurvivesCancel: drain B rides
// drain A's cordon (starting while A's is in place, so B never claims
// ownership) and runs to completion; cancelling A afterwards must not
// lift the cordon of a node B just reported drained. A, finding the
// node empty, reports completion (the empty check beats its dead
// context), and completion resets cordon ownership unconditionally —
// either way the node stays fenced.
func TestCompletedOverlappingDrainCordonSurvivesCancel(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 0; i < 2; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	aMigrated, aGate := make(chan struct{}), make(chan struct{})
	actx, acancel := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	var aOnce sync.Once
	go func() {
		_, err := c.DrainObserved(actx, "olt-01", func(ev DrainEvent) {
			if ev.Phase == DrainMigrated {
				aOnce.Do(func() {
					close(aMigrated)
					<-aGate
				})
			}
		})
		aDone <- err
	}()
	<-aMigrated
	// B starts while A's cordon stands and drains the node to empty.
	if _, err := c.Drain(context.Background(), "olt-01"); err != nil {
		t.Fatalf("drain B: %v", err)
	}
	acancel()
	close(aGate)
	if err := <-aDone; err != nil {
		t.Fatalf("drain A on the emptied node: %v, want completion", err)
	}
	if !utilOf(c, "olt-01").Cordoned {
		t.Fatal("drain A lifted the cordon of B's completed drain")
	}
	checkAccounting(t, c, "acme")
}

// TestNodeFailsAndRejoinsMidDrain: the node object a drain is working
// on fails and a namesake rejoins mid-drain. The drain must neither
// cordon nor report on the reborn node (identity, not name, decides) —
// it ends with a NodeNotFoundError, the failover owns the evacuation,
// and the namesake stays schedulable.
func TestNodeFailsAndRejoinsMidDrain(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 0; i < 3; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	migrated, gate := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		_, err := c.DrainObserved(context.Background(), "olt-01", func(ev DrainEvent) {
			if ev.Phase == DrainMigrated {
				once.Do(func() {
					close(migrated)
					<-gate
				})
			}
		})
		done <- err
	}()
	<-migrated
	if _, err := c.FailNode("olt-01"); err != nil {
		t.Fatal(err)
	}
	c.AddNode("olt-01", Resources{CPUMilli: 4000, MemoryMB: 8192})
	close(gate)
	var nf *NodeNotFoundError
	if err := <-done; !errors.As(err, &nf) {
		t.Fatalf("drain over failed node: %v, want *NodeNotFoundError", err)
	}
	if utilOf(c, "olt-01").Cordoned {
		t.Fatal("drain cordoned the reborn namesake node")
	}
	if got := len(c.Workloads()); got != 3 {
		t.Fatalf("%d workloads survive, want 3", got)
	}
	checkAccounting(t, c, "acme")
	// The namesake is a normal schedulable node again.
	w, err := c.DeployContext(context.Background(), "ops", policySpec("fresh", "acme", PlacementSpread))
	if err != nil {
		t.Fatal(err)
	}
	if w.Node != "olt-01" {
		t.Fatalf("fresh spread deploy on %s, want the idle reborn olt-01", w.Node)
	}
}

// TestOverlappingDrainCompletionReassertsCordon: drain B rides drain
// A's cordon; A is cancelled mid-B, and A's rollback lifts the cordon
// (it owns it). When B then completes, it must re-assert the cordon —
// no operator spoke, and "empty and cordoned" is B's contract.
func TestOverlappingDrainCompletionReassertsCordon(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 0; i < 3; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	aMigrated, aGate := make(chan struct{}), make(chan struct{})
	actx, acancel := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	var aOnce sync.Once
	go func() {
		_, err := c.DrainObserved(actx, "olt-01", func(ev DrainEvent) {
			if ev.Phase == DrainMigrated {
				aOnce.Do(func() {
					close(aMigrated)
					<-aGate
				})
			}
		})
		aDone <- err
	}()
	<-aMigrated
	// B rides A's cordon and pauses after its first migration, one
	// workload still on the node.
	bMigrated, bGate := make(chan struct{}), make(chan struct{})
	bDone := make(chan error, 1)
	var bOnce sync.Once
	go func() {
		_, err := c.DrainObserved(context.Background(), "olt-01", func(ev DrainEvent) {
			if ev.Phase == DrainMigrated {
				bOnce.Do(func() {
					close(bMigrated)
					<-bGate
				})
			}
		})
		bDone <- err
	}()
	<-bMigrated
	// A is cancelled with a workload still present: its rollback lifts
	// the cordon it owns, mid-B.
	acancel()
	close(aGate)
	if err := <-aDone; !errors.Is(err, ErrCancelled) {
		t.Fatalf("drain A: %v, want cancelled", err)
	}
	if utilOf(c, "olt-01").Cordoned {
		t.Fatal("fixture: A's rollback should have lifted its cordon")
	}
	// B finishes the evacuation and must leave the node cordoned.
	close(bGate)
	if err := <-bDone; err != nil {
		t.Fatalf("drain B: %v", err)
	}
	if !utilOf(c, "olt-01").Cordoned {
		t.Fatal("B's completion did not re-assert the cordon A's rollback lifted")
	}
	if got := nodesOf(c)["olt-01"]; got != 0 {
		t.Fatalf("%d workloads left on the drained node", got)
	}
	checkAccounting(t, c, "acme")
}

// TestDrainBoundedToInitialSet: an operator Uncordon mid-drain lets
// fresh traffic land on the node; the drain evacuates only the
// workloads present at cordon time and terminates, leaving the
// newcomer where the operator put it.
func TestDrainBoundedToInitialSet(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 0; i < 3; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	deployed := false
	res, err := c.DrainObserved(context.Background(), "olt-01", func(ev DrainEvent) {
		if ev.Phase == DrainMigrated && !deployed {
			deployed = true
			if uerr := c.Uncordon("olt-01"); uerr != nil {
				t.Errorf("mid-drain uncordon: %v", uerr)
			}
			// Fresh traffic immediately re-targets the reopened node
			// (binpack: it still carries load, so it scores highest).
			w, derr := c.DeployContext(context.Background(), "ops", policySpec("newcomer", "acme", ""))
			if derr != nil {
				t.Errorf("mid-drain deploy: %v", derr)
			} else if w.Node != "olt-01" {
				t.Errorf("fixture: newcomer landed on %s, want the reopened olt-01", w.Node)
			}
		}
	})
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(res.Migrated) != 3 {
		t.Fatalf("migrated = %v, want the initial three", res.Migrated)
	}
	// The completed drain reports the post-cordon arrival instead of
	// claiming the node is empty.
	if len(res.Remaining) != 1 || res.Remaining[0] != "newcomer" {
		t.Fatalf("remaining = %v, want the newcomer reported", res.Remaining)
	}
	nc, ok := c.Workload("newcomer")
	if !ok || nc.Node != "olt-01" {
		t.Fatalf("newcomer = %+v; the drain must not chase post-cordon arrivals", nc)
	}
	checkAccounting(t, c, "acme")
}

// TestDrainVictimOrder pins the drain's victim order while the node's
// workload set changes under it: the lowest-named initial workload still
// on the node goes first, one stopped mid-drain is skipped, and one
// stopped and redeployed onto the node after an uncordon — behind the
// cursor — is picked up by the final pass instead of left behind.
func TestDrainVictimOrder(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 0; i < 5; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.workloadsOn("olt-01"); len(got) != 5 {
		t.Fatalf("fixture: olt-01 holds %v, want all five (binpack)", got)
	}
	res, err := c.DrainObserved(context.Background(), "olt-01", func(ev DrainEvent) {
		if ev.Phase != DrainMigrated || ev.Workload != "w1" {
			return
		}
		// w2 is still on the node, ahead of the cursor: stop it.
		if err := c.Stop("w2"); err != nil {
			t.Errorf("stop w2: %v", err)
		}
		// w0 already moved, behind the cursor: bring it back to the node.
		if err := c.Stop("w0"); err != nil {
			t.Errorf("stop w0: %v", err)
		}
		if err := c.Uncordon("olt-01"); err != nil {
			t.Errorf("uncordon: %v", err)
		}
		w, err := c.DeployContext(context.Background(), "ops", policySpec("w0", "acme", ""))
		if err != nil {
			t.Errorf("redeploy w0: %v", err)
		} else if w.Node != "olt-01" {
			t.Errorf("fixture: w0 redeployed onto %s, want the reopened olt-01", w.Node)
		}
	})
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if want := []string{"w0", "w1", "w3", "w4", "w0"}; !slices.Equal(res.Migrated, want) {
		t.Fatalf("migrated %v, want %v", res.Migrated, want)
	}
	if len(res.Remaining) != 0 {
		t.Fatalf("remaining %v, want none", res.Remaining)
	}
	if _, ok := c.Workload("w2"); ok {
		t.Fatal("stopped w2 came back")
	}
	checkAccounting(t, c, "acme")
}

// TestFailoverDegradesOnBrokenClusterDefault: a cluster default typo'd
// after placement must not turn node failure into mass eviction — the
// victims fall back to an explicit binpack placement, keeping their
// original (empty) policy request intact.
func TestFailoverDegradesOnBrokenClusterDefault(t *testing.T) {
	c := quadCluster(t, Settings{})
	for i := 0; i < 3; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	// The operator fat-fingers the default after everything is placed.
	c.Settings.PlacementStrategy = "sperad"
	res, err := c.FailNode("olt-01")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evicted) != 0 || len(res.Rescheduled) != 3 {
		t.Fatalf("failover under broken default: %+v (fleet had capacity)", res)
	}
	for _, w := range c.Workloads() {
		if w.Strategy != PlacementBinpack {
			t.Fatalf("workload %s rescheduled under %q, want degraded binpack", w.Spec.Name, w.Strategy)
		}
		if w.Spec.PlacementPolicy != "" {
			t.Fatalf("workload %s's requested policy rewritten to %q", w.Spec.Name, w.Spec.PlacementPolicy)
		}
	}
	checkAccounting(t, c, "acme")
}

// TestFailNodeDeployCommitRace: a node failing between a deploy's
// placement and its commit must reschedule the deploy on the surviving
// fleet, not spuriously reject it for capacity the fleet still has.
func TestFailNodeDeployCommitRace(t *testing.T) {
	for round := 0; round < 30; round++ {
		c := quadCluster(t, Settings{})
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
					t.Errorf("round %d: deploy w%d: %v (fleet had capacity)", round, i, err)
				}
			}(i)
		}
		if _, err := c.FailNode("olt-01"); err != nil {
			t.Fatalf("fail: %v", err)
		}
		wg.Wait()
		if got := len(c.Workloads()); got != 6 {
			t.Fatalf("round %d: %d workloads survive, want 6", round, got)
		}
		for _, w := range c.Workloads() {
			if w.Node == "olt-01" {
				t.Fatalf("round %d: workload %s on failed node", round, w.Spec.Name)
			}
		}
		checkAccounting(t, c, "acme")
	}
}

// TestDrainCancelAfterLastMigrationCompletes: a cancellation landing
// in the final migration's observer must not demote a fully-evacuated
// drain to cancelled (which would lift the maintenance cordon on an
// empty node) — the empty check wins over the dead context.
func TestDrainCancelAfterLastMigrationCompletes(t *testing.T) {
	c := quadCluster(t, Settings{})
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	migrated := 0
	res, err := c.DrainObserved(ctx, "olt-01", func(ev DrainEvent) {
		if ev.Phase == DrainMigrated {
			if migrated++; migrated == n {
				cancel() // the node is empty now; drain must still complete
			}
		}
	})
	if err != nil {
		t.Fatalf("drain reported %v after full evacuation", err)
	}
	if res.Cancelled || len(res.Migrated) != n || len(res.Remaining) != 0 {
		t.Fatalf("result = %+v", res)
	}
	if !utilOf(c, "olt-01").Cordoned {
		t.Fatal("completed drain's cordon lifted by the late cancellation")
	}
	checkAccounting(t, c, "acme")
}

// TestFailAndRejoinDeployCommitRace: a node that fails AND rejoins
// under the same name inside a deploy's schedule-to-commit window is a
// different object — committing against it by name would register a
// workload whose VM and capacity reservation died with the old object.
// The commit window must verify node identity and reschedule.
func TestFailAndRejoinDeployCommitRace(t *testing.T) {
	for round := 0; round < 40; round++ {
		c := quadCluster(t, Settings{})
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := c.DeployContext(context.Background(), "ops", policySpec(fmt.Sprintf("w%d", i), "acme", "")); err != nil {
					t.Errorf("round %d: deploy w%d: %v", round, i, err)
				}
			}(i)
		}
		// The ABA: the binpack target fails and instantly rejoins under
		// its old name with a fresh (empty) state object.
		if _, err := c.FailNode("olt-01"); err != nil {
			t.Fatalf("fail: %v", err)
		}
		c.AddNode("olt-01", Resources{CPUMilli: 4000, MemoryMB: 8192})
		wg.Wait()
		if got := len(c.Workloads()); got != 6 {
			t.Fatalf("round %d: %d workloads, want 6", round, got)
		}
		// Every workload's VM must exist on its node and list it — a
		// name-based commit against the reborn object breaks this.
		vms := map[string]*VM{}
		for _, vm := range c.VMs() {
			vms[vm.ID] = vm
		}
		for _, w := range c.Workloads() {
			vm, ok := vms[w.VMID]
			if !ok {
				t.Fatalf("round %d: workload %s references missing VM %s on %s", round, w.Spec.Name, w.VMID, w.Node)
			}
			found := false
			for _, wl := range vm.Workloads {
				if wl == w.Spec.Name {
					found = true
				}
			}
			if !found || vm.Node != w.Node {
				t.Fatalf("round %d: workload %s not coherent with VM %s", round, w.Spec.Name, w.VMID)
			}
		}
		checkAccounting(t, c, "acme")
	}
}

func TestDrainEmptyNodeCompletesImmediately(t *testing.T) {
	c := quadCluster(t, Settings{})
	res, err := c.Drain(context.Background(), "olt-03")
	if err != nil || len(res.Migrated) != 0 || res.Cancelled {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	if !utilOf(c, "olt-03").Cordoned {
		t.Fatal("drained node must stay cordoned")
	}
}

func TestDrainAuditTrail(t *testing.T) {
	c := quadCluster(t, Settings{})
	var kinds []string
	c.SetAuditSink(func(a AuditEvent) { kinds = append(kinds, a.Kind) })
	if _, err := c.DeployContext(context.Background(), "ops", policySpec("w", "acme", "")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(context.Background(), "olt-01"); err != nil {
		t.Fatal(err)
	}
	var sawCordon, sawMigrate, sawDrain bool
	for _, k := range kinds {
		switch k {
		case "node-cordon":
			sawCordon = true
		case "drain-migrate":
			sawMigrate = true
		case "node-drain":
			sawDrain = true
		}
	}
	if !sawCordon || !sawMigrate || !sawDrain {
		t.Fatalf("audit kinds = %v", kinds)
	}
}
