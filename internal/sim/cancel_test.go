package sim

// Cancel-storm coverage beyond the generic determinism gates: the
// campaign must actually exercise cancellation, its invariants must be
// wired, and the harness must catch a cancelled-but-placed violation.

import (
	"context"
	"strings"
	"testing"

	"genio/internal/core"
	"genio/internal/orchestrator"
)

// TestCancelStormExercisesCancellation: across seeds, the campaign
// observes cancelled deployments, and the reports carry the two new
// invariants with zero violations.
func TestCancelStormExercisesCancellation(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rep, js := runJSON(t, "cancel-storm", seed)
		if !rep.Passed {
			t.Fatalf("seed %d violated invariants:\n%s", seed, js)
		}
		cancelledSeen := false
		for _, step := range rep.Steps {
			if step.Name == "cancel-storm" && strings.Contains(step.Detail, "cancelled=") {
				cancelledSeen = true
			}
		}
		if !cancelledSeen {
			t.Fatalf("seed %d: no cancel-storm step reported a cancellation:\n%s", seed, js)
		}
		wantInv := map[string]bool{"cancelled-never-placed": false, "lifecycle-ledger-balanced": false}
		for _, inv := range rep.Invariants {
			if _, ok := wantInv[inv]; ok {
				wantInv[inv] = true
			}
		}
		for name, found := range wantInv {
			if !found {
				t.Fatalf("seed %d: invariant %s not wired", seed, name)
			}
		}
		// The lifecycle topic must appear in the final ledger.
		if rep.Final.Events["deploy.lifecycle"] == 0 {
			t.Fatalf("seed %d: no deploy.lifecycle events in final ledger:\n%s", seed, js)
		}
	}
}

// TestHarnessDetectsCancelledPlacement: if a deployment the script
// recorded as cancelled somehow exists in the cluster, the
// cancelled-never-placed invariant must fire.
func TestHarnessDetectsCancelledPlacement(t *testing.T) {
	sabotage := Step{Name: "sabotage", Run: func(w *World) Outcome {
		// Deploy normally, then lie: record it as cancelled. The checker
		// must flag the discrepancy.
		spec := orchestrator.WorkloadSpec{
			Name: w.NextWorkloadName(), Tenant: "acme", ImageRef: CleanImageRef,
			Isolation: orchestrator.IsolationSoft,
			Resources: orchestrator.Resources{CPUMilli: 100, MemoryMB: 128},
		}
		if _, err := w.Platform.DeployContext(context.Background(), Subject, spec); err != nil {
			return Outcome{Status: "error", Detail: err.Error()}
		}
		w.cancelled[spec.Name] = true
		return okf("sabotaged %s", spec.Name)
	}}
	sc := Scenario{
		Name: "sabotage", Seed: 1, Config: core.SecureConfig(),
		Steps: []Step{
			SetQuota("acme", orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384}),
			JoinNode(orchestrator.Resources{CPUMilli: 4000, MemoryMB: 8192}),
			sabotage,
		},
	}
	rep, err := NewEngine(nil).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("cancelled-never-placed did not fire on a placed 'cancelled' workload")
	}
	found := false
	for _, step := range rep.Steps {
		for _, v := range step.Violations {
			if strings.Contains(v, "cancelled-never-placed") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("expected a cancelled-never-placed violation, got %+v", rep.Steps)
	}
}
