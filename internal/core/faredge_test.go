package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"genio/internal/container"
	"genio/internal/orchestrator"
)

func farEdgeSpec(name string) orchestrator.WorkloadSpec {
	return orchestrator.WorkloadSpec{
		Name: name, Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Resources: orchestrator.Resources{CPUMilli: 300, MemoryMB: 256},
	}
}

func farEdgePlatform(t *testing.T) *Platform {
	t.Helper()
	p := securePlatform(t)
	addNode(t, p, "olt-01")
	if _, err := p.AttachONU("olt-01", "onu-0001"); err != nil {
		t.Fatal(err)
	}
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "acme-ci", "acme")
	return p
}

func TestDeployFarEdge(t *testing.T) {
	p := farEdgePlatform(t)
	w, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001", farEdgeSpec("cam-analytics"))
	if err != nil {
		t.Fatalf("DeployFarEdge: %v", err)
	}
	if w.Serial != "onu-0001" || w.Node != "olt-01" {
		t.Fatalf("workload = %+v", w)
	}
	if w.Spec.Isolation != orchestrator.IsolationSoft {
		t.Fatal("far-edge must force soft isolation")
	}
	if got := len(p.FarEdgeWorkloads("olt-01", "onu-0001")); got != 1 {
		t.Fatalf("FarEdgeWorkloads = %d", got)
	}
}

func TestDeployFarEdgeUnknownONU(t *testing.T) {
	p := farEdgePlatform(t)
	if _, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-ghost", farEdgeSpec("x")); !errors.Is(err, ErrNoONU) {
		t.Fatalf("err = %v, want ErrNoONU", err)
	}
	if _, err := p.DeployFarEdge("acme-ci", "olt-ghost", "onu-0001", farEdgeSpec("x")); !errors.Is(err, ErrNoNode) {
		t.Fatalf("err = %v, want ErrNoNode", err)
	}
}

func TestFarEdgeCapacityEnforced(t *testing.T) {
	p := farEdgePlatform(t)
	// 3 x 300m fits in 1000m; the 4th does not.
	for i := 0; i < 3; i++ {
		if _, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001",
			farEdgeSpec("w"+string(rune('a'+i)))); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	_, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001", farEdgeSpec("overflow"))
	if !errors.Is(err, ErrFarEdgeCapacity) {
		t.Fatalf("err = %v, want ErrFarEdgeCapacity", err)
	}
	// Stopping one frees capacity.
	if err := p.StopFarEdge("olt-01", "onu-0001", "wa"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001", farEdgeSpec("retry")); err != nil {
		t.Fatalf("deploy after stop: %v", err)
	}
}

// TestFarEdgeNegativeDemandRejected: a negative demand must not mint ONU
// capacity — after the refusal the ONU still holds exactly 1000m.
func TestFarEdgeNegativeDemandRejected(t *testing.T) {
	p := farEdgePlatform(t)
	neg := farEdgeSpec("neg")
	neg.Resources = orchestrator.Resources{CPUMilli: -100000, MemoryMB: -100000}
	_, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001", neg)
	var derr *orchestrator.InvalidDemandError
	if !errors.As(err, &derr) || !errors.Is(err, orchestrator.ErrRejected) {
		t.Fatalf("err = %v, want *InvalidDemandError under ErrRejected", err)
	}
	if got := len(p.FarEdgeWorkloads("olt-01", "onu-0001")); got != 0 {
		t.Fatalf("ONU runs %d workloads after the rejection", got)
	}
	big := farEdgeSpec("big")
	big.Resources = orchestrator.Resources{CPUMilli: 1001, MemoryMB: 1}
	if _, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001", big); !errors.Is(err, ErrFarEdgeCapacity) {
		t.Fatalf("err = %v, want ErrFarEdgeCapacity (the negative demand minted capacity)", err)
	}
}

func TestFarEdgeAdmissionStillScans(t *testing.T) {
	p := farEdgePlatform(t)
	// The malicious image is signed by a trusted publisher (insider
	// threat) so it passes signature checks — admission scanning must
	// still reject it at the far edge.
	pushSigned(t, p, container.CryptominerImage())
	spec := farEdgeSpec("optimizer")
	spec.ImageRef = "freestuff/optimizer:latest"
	_, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001", spec)
	if err == nil {
		t.Fatal("malicious image deployed to far edge")
	}
	if !errors.Is(err, orchestrator.ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	// The rejection and its incidents name the workload as submitted, one
	// incident per failing scanner.
	var adm *orchestrator.AdmissionError
	if !errors.As(err, &adm) || adm.Workload != "optimizer" {
		t.Fatalf("err = %#v, want *AdmissionError for workload optimizer", err)
	}
	got := admissionIncidentsByWorkload(p)
	if k := len(adm.Rejections()); len(got) != 1 || got["optimizer"] != k {
		t.Fatalf("admission incidents by workload = %v, want optimizer x %d only", got, k)
	}
}

// TestFarEdgeRunsDefaultClusterChain checks far-edge admission is the
// default cluster's own chain: a controller registered after New gates
// far-edge deployments too.
func TestFarEdgeRunsDefaultClusterChain(t *testing.T) {
	p := farEdgePlatform(t)
	p.Cluster.RegisterAdmissionCtx("no-cameras", func(_ context.Context, spec orchestrator.WorkloadSpec, _ *container.Image) error {
		if strings.HasPrefix(spec.Name, "cam-") {
			return errors.New("cameras are not allowed")
		}
		return nil
	})
	_, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001", farEdgeSpec("cam-analytics"))
	if !errors.Is(err, orchestrator.ErrDenied) || !strings.Contains(err.Error(), "by no-cameras") {
		t.Fatalf("err = %v, want a denial by no-cameras", err)
	}
	if _, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001", farEdgeSpec("analytics")); err != nil {
		t.Fatalf("unrelated workload rejected: %v", err)
	}
}

// TestFarEdgeSameNameOnTwoONUsConcurrently checks names are scoped to the
// ONU: admission reserves nothing cluster-wide, so two ONUs can take the
// same workload name at the same moment.
func TestFarEdgeSameNameOnTwoONUsConcurrently(t *testing.T) {
	p := farEdgePlatform(t)
	if _, err := p.AttachONU("olt-01", "onu-0002"); err != nil {
		t.Fatal(err)
	}
	serials := []string{"onu-0001", "onu-0002"}
	for round := 0; round < 20; round++ {
		name := fmt.Sprintf("cam-%d", round)
		errs := make([]error, len(serials))
		var wg sync.WaitGroup
		for i, serial := range serials {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = p.DeployFarEdge("acme-ci", "olt-01", serial, farEdgeSpec(name))
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: deploy on %s: %v", round, serials[i], err)
			}
			if err := p.StopFarEdge("olt-01", serials[i], name); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFarEdgeRBAC(t *testing.T) {
	p := farEdgePlatform(t)
	if _, err := p.DeployFarEdge("stranger", "olt-01", "onu-0001", farEdgeSpec("x")); !errors.Is(err, orchestrator.ErrUnauthorized) {
		t.Fatalf("err = %v, want ErrUnauthorized", err)
	}
}

func TestFarEdgeDuplicateName(t *testing.T) {
	p := farEdgePlatform(t)
	if _, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001", farEdgeSpec("dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001", farEdgeSpec("dup")); !errors.Is(err, orchestrator.ErrDuplicateName) {
		t.Fatalf("err = %v, want ErrDuplicateName", err)
	}
}

func TestStopFarEdgeErrors(t *testing.T) {
	p := farEdgePlatform(t)
	if err := p.StopFarEdge("olt-01", "onu-0001", "ghost"); !errors.Is(err, ErrNoONU) {
		t.Fatalf("err = %v, want ErrNoONU (no deployments yet)", err)
	}
	if _, err := p.DeployFarEdge("acme-ci", "olt-01", "onu-0001", farEdgeSpec("w")); err != nil {
		t.Fatal(err)
	}
	if err := p.StopFarEdge("olt-01", "onu-0001", "ghost"); !errors.Is(err, orchestrator.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestFarEdgeOnLegacyPlatformSkipsControls(t *testing.T) {
	p := legacyPlatform(t)
	addNode(t, p, "olt-01")
	if _, err := p.AttachONU("olt-01", "onu-0001"); err != nil {
		t.Fatal(err)
	}
	p.Registry.Push(container.CryptominerImage(), nil)
	spec := farEdgeSpec("optimizer")
	spec.ImageRef = "freestuff/optimizer:latest"
	if _, err := p.DeployFarEdge("anyone", "olt-01", "onu-0001", spec); err != nil {
		t.Fatalf("legacy far-edge deploy rejected: %v", err)
	}
}
