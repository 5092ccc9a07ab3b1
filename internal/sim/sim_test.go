package sim

import (
	"bytes"
	"strings"
	"testing"

	"genio/internal/core"
	"genio/internal/orchestrator"
)

func runJSON(t *testing.T, name string, seed int64) (*Report, []byte) {
	t.Helper()
	sc, err := NewCampaign(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewEngine(nil).Run(sc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return rep, js
}

// TestCampaignsDeterministic is the acceptance bar: every named campaign,
// run twice from the same seed, produces a byte-identical JSON report
// with all invariants passing.
func TestCampaignsDeterministic(t *testing.T) {
	for _, name := range CampaignNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			rep1, js1 := runJSON(t, name, 7)
			_, js2 := runJSON(t, name, 7)
			if !bytes.Equal(js1, js2) {
				t.Fatalf("two runs of %s seed 7 differ:\n--- run1\n%s\n--- run2\n%s", name, js1, js2)
			}
			if !rep1.Passed {
				t.Fatalf("%s violated invariants:\n%s", name, js1)
			}
			if len(rep1.Steps) < 5 {
				t.Fatalf("%s has only %d steps", name, len(rep1.Steps))
			}
		})
	}
}

// TestCampaignsAcrossSeeds explores different storms: invariants must
// hold for any seed, and different seeds must actually produce different
// runs (the seed is a real knob, not decoration).
func TestCampaignsAcrossSeeds(t *testing.T) {
	for _, name := range CampaignNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			var reports [][]byte
			for seed := int64(1); seed <= 3; seed++ {
				rep, js := runJSON(t, name, seed)
				if !rep.Passed {
					t.Fatalf("%s seed %d violated invariants:\n%s", name, seed, js)
				}
				reports = append(reports, js)
			}
			if name == "incident-storm" {
				return // fully scripted structure; seeds only vary the traces
			}
			if bytes.Equal(reports[0], reports[1]) && bytes.Equal(reports[1], reports[2]) {
				t.Fatalf("%s identical across seeds 1..3", name)
			}
		})
	}
}

// TestFailoverStormExercisesEviction checks the storm actually reaches
// the interesting regime: failovers happen and the final fleet recovered.
func TestFailoverStormExercisesEviction(t *testing.T) {
	rep, js := runJSON(t, "failover-storm", 7)
	crashes := 0
	for _, s := range rep.Steps {
		if s.Name == "node-crash-random" && s.Status == "failed-over" {
			crashes++
		}
	}
	if crashes == 0 {
		t.Fatalf("no node crashes executed:\n%s", js)
	}
	if len(rep.Final.LiveNodes) == 0 {
		t.Fatalf("fleet never recovered:\n%s", js)
	}
	if rep.Final.Workloads == 0 {
		t.Fatalf("no workloads survived the storm:\n%s", js)
	}
}

// TestAdmissionFloodVerdicts checks the flood hits every verdict class:
// admitted, denied by a scanner, and rejected at signature verification.
func TestAdmissionFloodVerdicts(t *testing.T) {
	rep, js := runJSON(t, "admission-flood", 7)
	if rep.Final.Admitted == 0 || rep.Final.Rejected == 0 {
		t.Fatalf("flood did not produce both admissions (%d) and rejections (%d):\n%s",
			rep.Final.Admitted, rep.Final.Rejected, js)
	}
	if rep.Final.Incidents["admission"] == 0 {
		t.Fatalf("no admission incidents recorded:\n%s", js)
	}
	var sawTamperReject bool
	for i, s := range rep.Steps {
		if s.Name == "registry-tamper" && i+1 < len(rep.Steps) {
			if next := rep.Steps[i+1]; next.Name == "deploy" && next.Status == "pull-failed" {
				sawTamperReject = true
			}
		}
	}
	if !sawTamperReject {
		t.Fatalf("tampered signature did not fail the following deploy:\n%s", js)
	}
}

// TestDeployStormStopsAndRedeploys checks the stop→redeploy storm does
// what its name says on every seed, read from the step statuses: at
// least four workloads stopped, at least four admitted deploys that each
// follow an unmatched stop (a redeploy), and a redeploy on the platform
// a kill-restart recovered.
func TestDeployStormStopsAndRedeploys(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rep, js := runJSON(t, "deploy-storm", seed)
		if !rep.Passed {
			t.Fatalf("seed %d violated invariants:\n%s", seed, js)
		}
		stops, redeploys, unmatched := 0, 0, 0
		restarted, redeployedAfterRestart := false, false
		for _, s := range rep.Steps {
			switch {
			case strings.HasPrefix(s.Name, "workload-stop") && s.Status == "ok" && strings.HasSuffix(s.Detail, " stopped"):
				stops++
				unmatched++
			case s.Name == "deploy" && s.Status == "admitted" && unmatched > 0:
				redeploys++
				unmatched--
				redeployedAfterRestart = redeployedAfterRestart || restarted
			case s.Name == "kill-restart" && s.Status == "recovered":
				restarted = true
			}
		}
		if stops < 4 || redeploys < 4 {
			t.Fatalf("seed %d: %d stops and %d redeploys, want at least 4 of each:\n%s", seed, stops, redeploys, js)
		}
		if !redeployedAfterRestart {
			t.Fatalf("seed %d: no redeploy after the kill-restart:\n%s", seed, js)
		}
	}
}

// TestIncidentStormDetections checks runtime monitoring fired during the
// storm campaign.
// TestKillRestartCountsEveryIncarnation checks the report's admitted and
// rejected totals span every platform incarnation: each equals what the
// deploy steps saw, before and after each kill-restart, although a
// recovered platform's counters start again at zero.
func TestKillRestartCountsEveryIncarnation(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rep, _ := runJSON(t, "kill-restart", seed)
		var admitted, rejected int
		for _, s := range rep.Steps {
			if s.Name != "deploy" {
				continue
			}
			switch s.Status {
			case "admitted":
				admitted++
			case "cancelled", "error":
			default:
				rejected++
			}
		}
		if admitted == 0 || rejected == 0 {
			t.Fatalf("seed %d: steps admitted %d and rejected %d deploys, want both", seed, admitted, rejected)
		}
		if rep.Final.Admitted != admitted || rep.Final.Rejected != rejected {
			t.Fatalf("seed %d: report admitted=%d rejected=%d, steps admitted=%d rejected=%d",
				seed, rep.Final.Admitted, rep.Final.Rejected, admitted, rejected)
		}
	}
}

func TestIncidentStormDetections(t *testing.T) {
	rep, js := runJSON(t, "incident-storm", 7)
	if rep.Final.Incidents["falco"] == 0 && rep.Final.Incidents["sandbox"] == 0 {
		t.Fatalf("storm raised no runtime incidents:\n%s", js)
	}
	if rep.Final.VirtualMs == 0 {
		t.Fatalf("virtual clock never advanced:\n%s", js)
	}
}

// TestHarnessDetectsViolations proves the invariant checkers are live: a
// scripted verdict flip and a script/cluster topology mismatch must fail
// the run.
func TestHarnessDetectsViolations(t *testing.T) {
	sc := Scenario{
		Name: "self-test", Seed: 1, Config: core.SecureConfig(),
		Steps: []Step{
			JoinNode(nodeCapacity),
			{Name: "verdict-flip", Run: func(w *World) Outcome {
				w.recordVerdict("img:x", "admitted")
				w.recordVerdict("img:x", "denied")
				return okf("injected flip")
			}},
			{Name: "ghost-node", Run: func(w *World) Outcome {
				// Node added behind the script's back: cluster and scenario
				// now disagree about the live set.
				w.Platform.Cluster.AddNode("ghost", nodeCapacity)
				return okf("injected ghost node")
			}},
		},
	}
	rep, err := NewEngine(nil).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed || rep.Violations < 2 {
		js, _ := rep.JSON()
		t.Fatalf("harness missed injected violations:\n%s", js)
	}
	var flip, ghost bool
	for _, s := range rep.Steps {
		for _, v := range s.Violations {
			if strings.HasPrefix(v, "admission-determinism:") {
				flip = true
			}
			if strings.HasPrefix(v, "no-dead-node-placement:") {
				ghost = true
			}
		}
	}
	if !flip || !ghost {
		t.Fatalf("expected both violation kinds, got flip=%v ghost=%v", flip, ghost)
	}
}

// TestHarnessDetectsLostNode covers the reverse topology direction: a
// node the script considers alive vanishing from the cluster.
func TestHarnessDetectsLostNode(t *testing.T) {
	sc := Scenario{
		Name: "lost-node", Seed: 1, Config: core.SecureConfig(),
		Steps: []Step{
			JoinNode(nodeCapacity),
			{Name: "silent-loss", Run: func(w *World) Outcome {
				// Node failed behind the script's back.
				if _, err := w.Platform.Cluster.FailNode("olt-001"); err != nil {
					return Outcome{Status: "error", Detail: err.Error()}
				}
				return okf("injected silent node loss")
			}},
		},
	}
	rep, err := NewEngine(nil).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range rep.Steps {
		for _, v := range s.Violations {
			if strings.Contains(v, "cluster lost node olt-001") {
				found = true
			}
		}
	}
	if rep.Passed || !found {
		js, _ := rep.JSON()
		t.Fatalf("silent node loss not detected:\n%s", js)
	}
}

// TestVerdictFlipSurfacesWithCustomInvariants: determinism violations
// must reach the report even when the custom invariant set omits the
// AdmissionDeterminism checker.
func TestVerdictFlipSurfacesWithCustomInvariants(t *testing.T) {
	sc := Scenario{
		Name: "custom-invariants", Seed: 1, Config: core.SecureConfig(),
		Steps: []Step{
			{Name: "verdict-flip", Run: func(w *World) Outcome {
				w.recordVerdict("img:y", "admitted")
				w.recordVerdict("img:y", "denied")
				return okf("injected flip")
			}},
		},
	}
	rep, err := NewEngine([]Invariant{NoCapacityOversubscription()}).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed || rep.Violations != 1 {
		js, _ := rep.JSON()
		t.Fatalf("flip dropped under custom invariant set:\n%s", js)
	}
	if v := rep.Steps[0].Violations[0]; !strings.HasPrefix(v, "admission-determinism:") {
		t.Fatalf("violation mislabelled: %q", v)
	}
}

// TestQuotaInvariantUnderFlood places the oversubscription checker under
// real pressure: a tight quota and a flood far beyond it.
func TestQuotaInvariantUnderFlood(t *testing.T) {
	sc := Scenario{
		Name: "quota-pressure", Seed: 3, Config: core.SecureConfig(),
		Steps: []Step{
			JoinNode(orchestrator.Resources{CPUMilli: 32000, MemoryMB: 65536}),
			SetQuota("tight", orchestrator.Resources{CPUMilli: 1100, MemoryMB: 1100}),
			AdmissionFlood(20, "tight", smallDemand, CleanImageRef),
		},
	}
	rep, err := NewEngine(nil).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	js, _ := rep.JSON()
	if !rep.Passed {
		t.Fatalf("quota invariant violated:\n%s", js)
	}
	// 1100m quota with 500m workloads: exactly 2 fit.
	if rep.Final.Admitted != 2 {
		t.Fatalf("admitted %d under tight quota, want 2:\n%s", rep.Final.Admitted, js)
	}
}

func TestUnknownCampaign(t *testing.T) {
	if _, err := NewCampaign("no-such", 1); err == nil {
		t.Fatal("unknown campaign accepted")
	}
}

func TestClock(t *testing.T) {
	c := NewClock(100)
	if c.NowMs() != 100 {
		t.Fatalf("origin = %d", c.NowMs())
	}
	if c.Advance(50) != 150 {
		t.Fatal("advance")
	}
	if c.Advance(-10) != 150 {
		t.Fatal("clock rewound")
	}
	if c.Source()() != 150 {
		t.Fatal("source mismatch")
	}
}
