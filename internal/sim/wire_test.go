package sim

// Wire coverage beyond the generic determinism gates: every campaign's
// deployments cross the HTTP stack, so the client-surface storm must see
// placements, rejections AND cancellations, the ledger probe must
// observe the lifecycle topic through GET /v2/ledger, and the durable
// and federated campaigns must keep reaching a live platform across
// kill-restarts and evacuations.

import (
	"strings"
	"testing"
)

// TestWireDeployStormCrossesTheWire: across seeds the campaign passes
// with the lifecycle-ledger-balanced and no-silent-event-drops
// invariants wired, sees wire-side admissions, denials and
// cancellations, and the wire ledger probe reports lifecycle traffic.
func TestWireDeployStormCrossesTheWire(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rep, js := runJSON(t, "wire-deploy-storm", seed)
		if !rep.Passed {
			t.Fatalf("seed %d violated invariants:\n%s", seed, js)
		}
		wantInv := map[string]bool{
			"lifecycle-ledger-balanced": false,
			"no-silent-event-drops":     false,
			"cancelled-never-placed":    false,
		}
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
		var admitted, denied, cancelled, probed bool
		for _, step := range rep.Steps {
			switch {
			case step.Name == "deploy" || step.Name == "admission-flood" || step.Name == "deploy-batch":
				if step.Status == "admitted" || strings.Contains(step.Detail, "admitted=") {
					admitted = true
				}
				if step.Status == "denied" || strings.Contains(step.Detail, "denied=") {
					denied = true
				}
			case step.Name == "cancel-storm":
				if strings.Contains(step.Detail, "cancelled=") {
					cancelled = true
				}
			case step.Name == "ledger-probe":
				if step.Status != "ok" {
					t.Fatalf("seed %d: ledger probe failed: %s", seed, step.Detail)
				}
				if !strings.Contains(step.Detail, "published=") {
					t.Fatalf("seed %d: ledger probe reported no publish count: %s", seed, step.Detail)
				}
				probed = true
			}
			if step.Status == "error" {
				t.Fatalf("seed %d: step %s errored: %s", seed, step.Name, step.Detail)
			}
		}
		if !admitted || !denied || !cancelled {
			t.Fatalf("seed %d: storm did not exercise the wire (admitted=%v denied=%v cancelled=%v):\n%s",
				seed, admitted, denied, cancelled, js)
		}
		if !probed {
			t.Fatalf("seed %d: no ledger-probe step ran:\n%s", seed, js)
		}
		if rep.Final.Events["deploy.lifecycle"] == 0 {
			t.Fatalf("seed %d: no deploy.lifecycle events in final ledger:\n%s", seed, js)
		}
	}
}

// TestDurableAndFederatedCampaignsCrossTheWire: the wire composes with
// persistence and federation. The durable and federated campaigns pass,
// and no deploy-shaped step ever reports a harness error — in
// particular none after a kill-restart, which shows the client was
// rebound to the recovered platform rather than left on the crashed one.
func TestDurableAndFederatedCampaignsCrossTheWire(t *testing.T) {
	isDeploy := func(name string) bool {
		return name == "deploy" || strings.HasPrefix(name, "deploy-") ||
			name == "admission-flood" || name == "cancel-storm"
	}
	for _, name := range []string{"kill-restart", "deploy-storm", "region-outage"} {
		// kill-restart's post-crash traffic is seeded and may hold no
		// deploy; over seeds 1–3 at least one run must.
		deployedAfterRestart := false
		for seed := int64(1); seed <= 3; seed++ {
			rep, js := runJSON(t, name, seed)
			if !rep.Passed {
				t.Fatalf("%s seed %d violated invariants:\n%s", name, seed, js)
			}
			restarted := false
			for _, s := range rep.Steps {
				if s.Name == "kill-restart" {
					if s.Status != "recovered" {
						t.Fatalf("%s seed %d: restart failed: %s", name, seed, s.Detail)
					}
					restarted = true
					continue
				}
				if !isDeploy(s.Name) {
					continue
				}
				if s.Status == "error" || strings.Contains(s.Detail, "error=") {
					t.Fatalf("%s seed %d: step %d %s reported an error: %s", name, seed, s.Index, s.Name, s.Detail)
				}
				deployedAfterRestart = deployedAfterRestart || restarted
			}
		}
		if name != "region-outage" && !deployedAfterRestart {
			t.Fatalf("%s: no deploy after a kill-restart at seeds 1–3", name)
		}
	}
}
