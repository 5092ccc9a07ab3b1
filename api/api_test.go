package api

// DTO conversion contract: the wire shapes are a re-declaration, so
// every converter must carry each field across exactly, and the spec
// round trip (library → wire → library) must be the identity.

import (
	"reflect"
	"testing"

	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/orchestrator"
)

func TestWorkloadSpecRoundTrip(t *testing.T) {
	for _, iso := range []orchestrator.IsolationMode{orchestrator.IsolationSoft, orchestrator.IsolationHard} {
		lib := orchestrator.WorkloadSpec{
			Name: "web", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
			Isolation:       iso,
			Resources:       orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
			PlacementPolicy: "spread",
		}
		back, err := FromWorkloadSpec(lib).ToOrchestrator()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, lib) {
			t.Fatalf("round trip lost data:\n got %+v\nwant %+v", back, lib)
		}
	}
	// Empty isolation defaults to soft; unknown names refuse.
	spec, err := WorkloadSpec{Name: "w", Tenant: "t"}.ToOrchestrator()
	if err != nil || spec.Isolation != orchestrator.IsolationSoft {
		t.Fatalf("default isolation: %v / %v", spec.Isolation, err)
	}
	if _, err := (WorkloadSpec{Isolation: "quantum"}).ToOrchestrator(); err == nil {
		t.Fatal("unknown isolation accepted")
	}
	// A negative demand converts verbatim: the pipeline refuses it, so
	// the rejection is counted and audited whichever path it took.
	for _, r := range []Resources{{CPUMilli: -1}, {MemoryMB: -1}} {
		spec, err := WorkloadSpec{Name: "w", Resources: r}.ToOrchestrator()
		if err != nil || spec.Resources != (orchestrator.Resources{CPUMilli: r.CPUMilli, MemoryMB: r.MemoryMB}) {
			t.Fatalf("demand %+v: %+v, %v; want it carried verbatim", r, spec.Resources, err)
		}
	}
}

func TestFromWorkload(t *testing.T) {
	if FromWorkload(nil) != nil {
		t.Fatal("nil workload must map to nil")
	}
	wl := FromWorkload(&orchestrator.Workload{
		Spec: orchestrator.WorkloadSpec{Name: "web", Tenant: "acme",
			Isolation: orchestrator.IsolationHard},
		Node: "olt-01", VMID: "vm-007", PlacedAtMs: 42, Strategy: "binpack", Score: 0.5,
	})
	if wl.Node != "olt-01" || wl.VMID != "vm-007" || wl.PlacedAtMs != 42 ||
		wl.Strategy != "binpack" || wl.Score != 0.5 || wl.Spec.Isolation != IsolationHard {
		t.Fatalf("fields lost: %+v", wl)
	}
}

func TestLifecycleEventConversion(t *testing.T) {
	ev := FromLifecycleEvent(core.LifecycleEvent{
		Workload: "web", Tenant: "acme",
		From: core.StateScanning, State: core.StateRunning,
		Node: "olt-01", Detail: "d", AtMs: 7,
	})
	want := LifecycleEvent{Workload: "web", Tenant: "acme",
		From: "scanning", State: "running", Node: "olt-01", Detail: "d", AtMs: 7}
	if ev != want {
		t.Fatalf("got %+v want %+v", ev, want)
	}
	if !ev.Terminal() {
		t.Fatal("running must be terminal")
	}
	if (LifecycleEvent{State: "scanning"}).Terminal() {
		t.Fatal("scanning must not be terminal")
	}
}

func TestFromUtilization(t *testing.T) {
	ns := FromUtilization(orchestrator.NodeUtilization{
		Node:     "olt-01",
		Used:     orchestrator.Resources{CPUMilli: 100, MemoryMB: 200},
		Capacity: orchestrator.Resources{CPUMilli: 1000, MemoryMB: 2000},
		Cordoned: true, Workloads: 3, SharedVMs: 2,
	})
	if ns.Node != "olt-01" || ns.Used.CPUMilli != 100 || ns.Capacity.MemoryMB != 2000 ||
		!ns.Cordoned || ns.Workloads != 3 || ns.SharedVMs != 2 ||
		ns.Binpack != nil || ns.Spread != nil {
		t.Fatalf("fields lost: %+v", ns)
	}
}

func TestResultConversions(t *testing.T) {
	if FromDrainResult(nil) != nil || FromFailoverResult(nil) != nil {
		t.Fatal("nil results must map to nil")
	}
	dr := FromDrainResult(&orchestrator.DrainResult{
		Node: "olt-01", Migrated: []string{"a"}, Remaining: []string{"b"},
		Cancelled: true, AtMs: 9,
	})
	if dr.Node != "olt-01" || len(dr.Migrated) != 1 || len(dr.Remaining) != 1 ||
		!dr.Cancelled || dr.AtMs != 9 {
		t.Fatalf("drain fields lost: %+v", dr)
	}
	fr := FromFailoverResult(&orchestrator.FailoverResult{
		Node: "olt-02", Rescheduled: []string{"a", "b"}, Evicted: []string{"c"}, AtMs: 4,
	})
	if fr.Node != "olt-02" || len(fr.Rescheduled) != 2 || len(fr.Evicted) != 1 || fr.AtMs != 4 {
		t.Fatalf("failover fields lost: %+v", fr)
	}
}

func TestFromStats(t *testing.T) {
	ledger := FromStats(events.Stats{
		events.TopicMetric: {Published: 5, Delivered: 4, Dropped: 1},
	})
	got := ledger["metric"]
	if got.Published != 5 || got.Delivered != 4 || got.Dropped != 1 {
		t.Fatalf("counters lost: %+v", got)
	}
}
