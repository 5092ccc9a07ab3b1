package sim

// Federation-campaign coverage beyond the generic determinism gates: the
// region-outage campaign exists to drive the federated control plane
// through the storms the paper cares about — residency pins, ring
// routing, and a full mid-storm cluster evacuation — so these tests
// assert those paths actually ran, not merely that nothing broke.

import (
	"strings"
	"testing"

	"genio/internal/core"
	"genio/internal/orchestrator"
)

// TestRegionOutageExercisesFederation: across seeds the campaign must
// take every federated path it audits — a residency rejection for the
// pinned tenant, a successful evacuation of a non-default member — and
// the no-cross-region-leak invariant must be armed and clean throughout.
func TestRegionOutageExercisesFederation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rep, js := runJSON(t, "region-outage", seed)
		if !rep.Passed {
			t.Fatalf("seed %d violated invariants:\n%s", seed, js)
		}
		armed := false
		for _, inv := range rep.Invariants {
			if inv == "no-cross-region-leak" {
				armed = true
			}
		}
		if !armed {
			t.Fatalf("seed %d: no-cross-region-leak not in the invariant set", seed)
		}
		var pinned, evacuated bool
		for _, s := range rep.Steps {
			if s.Status == "region-pinned" {
				pinned = true
			}
			if s.Name == "cluster-evacuate" {
				if s.Status != "evacuated" {
					t.Fatalf("seed %d: evacuation did not succeed: %s %s", seed, s.Status, s.Detail)
				}
				if !strings.Contains(s.Detail, "cluster edge-b down") {
					t.Fatalf("seed %d: unexpected evacuation detail %q", seed, s.Detail)
				}
				evacuated = true
			}
		}
		if !pinned {
			t.Fatalf("seed %d: no deploy was refused by the residency pin", seed)
		}
		if !evacuated {
			t.Fatalf("seed %d: the campaign never evacuated a cluster", seed)
		}
	}
}

// TestFederatedScenarioSpansMembers: workloads of a federated run land
// on more than one member (the ring actually distributes), and the
// final report's fleet inventory covers every member's nodes.
func TestFederatedScenarioSpansMembers(t *testing.T) {
	rep, js := runJSON(t, "region-outage", 7)
	// Six nodes join (two per member), edge-b's two die with the
	// evacuation; random crashes may thin the rest but the survivors in
	// the final inventory must span members (olt names are sequential:
	// 001-002 default, 003-004 edge-b, 005-006 edge-c).
	for _, n := range rep.Final.LiveNodes {
		if strings.HasPrefix(n, "olt-003") || strings.HasPrefix(n, "olt-004") {
			t.Fatalf("evacuated member's node %s still in the final inventory:\n%s", n, js)
		}
	}
	if rep.Final.Workloads == 0 {
		t.Fatalf("federated run ended with no workloads:\n%s", js)
	}
}

// TestFederatedPersistRefused: membership is boot configuration, not
// durable state — a federated scenario asking for persistence must be
// refused up front rather than silently resurrecting evacuated members
// on a kill-restart.
func TestFederatedPersistRefused(t *testing.T) {
	sc, err := NewCampaign("region-outage", 1)
	if err != nil {
		t.Fatal(err)
	}
	sc.Persist = true
	if _, err := NewEngine(nil).Run(sc); err == nil {
		t.Fatal("federated persistent scenario accepted")
	}
}

// TestStopReachesNonDefaultMember: the stop injectors see every
// member's workloads and stop a workload on the member that holds it,
// not only on the default one.
func TestStopReachesNonDefaultMember(t *testing.T) {
	demand := orchestrator.Resources{CPUMilli: 500, MemoryMB: 512}
	sc := Scenario{
		Name: "fed-stop", Seed: 1, Config: core.SecureConfig(),
		Federation: []FedMember{
			{Name: "edge-a", Region: "region-a"},
			{Name: "edge-b", Region: "region-b"},
		},
		Steps: []Step{
			SetQuota("acme", orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384}),
			JoinFedNode("edge-b", orchestrator.Resources{CPUMilli: 4000, MemoryMB: 8192}),
			DeployRegion("acme", CleanImageRef, orchestrator.IsolationSoft, demand, "region-b"),
			StopNewestWorkload(),
		},
	}
	rep, err := NewEngine(nil).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	js, _ := rep.JSON()
	if !rep.Passed || rep.Steps[2].Status != "admitted" {
		t.Fatalf("setup failed:\n%s", js)
	}
	if stop := rep.Steps[3]; stop.Status != "ok" || stop.Detail != "workload wl-001 stopped" {
		t.Fatalf("stop on edge-b: got %s %q:\n%s", stop.Status, stop.Detail, js)
	}
	if rep.Final.Workloads != 0 {
		t.Fatalf("%d workloads left after the stop:\n%s", rep.Final.Workloads, js)
	}
}
