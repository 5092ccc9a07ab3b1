package core

// Regression tests for the single incident-derivation point: admission
// incidents come from a deploy's final verdict, so every rejected deploy —
// scan leader or singleflight follower — is named once per failing
// verdict, and a cancelled deploy is never named.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"genio/internal/container"
	"genio/internal/orchestrator"
)

// admissionIncidentsByWorkload tallies the log's admission incidents.
func admissionIncidentsByWorkload(p *Platform) map[string]int {
	got := make(map[string]int)
	for _, inc := range p.Incidents() {
		if inc.Source == "admission" {
			got[inc.Workload]++
		}
	}
	return got
}

func minerSpec(name string) orchestrator.WorkloadSpec {
	spec := asyncSpec(name)
	spec.ImageRef = "freestuff/optimizer:latest"
	return spec
}

func TestConcurrentRejectionsRecordIncidentsPerWorkload(t *testing.T) {
	p := asyncPlatform(t)
	pushSigned(t, p, container.CryptominerImage())

	// A cacheable rejecting controller at the end of the chain holds the
	// first deploy inside its scan while the others arrive, so they adopt
	// its verdict as singleflight followers instead of scanning.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	p.Cluster.RegisterAdmissionCachedCtx("test-hold", func(context.Context, orchestrator.WorkloadSpec, *container.Image) error {
		once.Do(func() { close(entered) })
		<-release
		return errors.New("held and rejected")
	})

	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	deploy := func(i int) {
		defer wg.Done()
		_, errs[i] = p.DeployContext(context.Background(), "ci", minerSpec(fmt.Sprintf("miner-%d", i)))
	}
	wg.Add(n)
	go deploy(0)
	<-entered
	for i := 1; i < n; i++ {
		go deploy(i)
	}
	time.Sleep(20 * time.Millisecond) // let the followers reach the in-flight wait
	close(release)
	wg.Wait()

	k := 0
	for i, err := range errs {
		var adm *orchestrator.AdmissionError
		if !errors.As(err, &adm) {
			t.Fatalf("deploy %d: err = %v, want *AdmissionError", i, err)
		}
		if got := len(adm.Rejections()); i == 0 {
			k = got
		} else if got != k {
			t.Fatalf("deploy %d: %d failing verdicts, deploy 0 had %d", i, got, k)
		}
	}
	if k < 2 {
		t.Fatalf("k = %d failing verdicts, want the malware gate and test-hold at least", k)
	}
	got := admissionIncidentsByWorkload(p)
	for i := 0; i < n; i++ {
		if name := fmt.Sprintf("miner-%d", i); got[name] != k {
			t.Errorf("%s named by %d admission incidents, want %d", name, got[name], k)
		}
	}
	if total := p.IncidentCounts()["admission"]; total != n*k {
		t.Fatalf("%d admission incidents for %d rejected deploys x %d failing verdicts", total, n, k)
	}
}

func TestCancelledMidScanRecordsNoIncident(t *testing.T) {
	p := asyncPlatform(t)
	if _, err := p.DeployContext(context.Background(), "ci", asyncSpec("warm")); err != nil {
		t.Fatalf("warm deploy: %v", err)
	}
	pushSigned(t, p, container.CryptominerImage()) // re-keys the publisher
	cacheBefore := p.Cluster.AdmissionCacheSize()

	// The gate runs after the scanners: by the time it holds the deploy
	// open the malware gate has already produced a failing verdict.
	reached := armGate(p, "victim")
	d, err := p.DeployAsync(context.Background(), "ci", minerSpec("victim"))
	if err != nil {
		t.Fatalf("DeployAsync: %v", err)
	}
	<-reached
	d.Cancel()
	if _, derr := d.Result(); !errors.Is(derr, orchestrator.ErrCancelled) {
		t.Fatalf("Result err = %v, want ErrCancelled", derr)
	}
	if got := admissionIncidentsByWorkload(p)["victim"]; got != 0 {
		t.Fatalf("cancelled deploy recorded %d admission incidents, want 0", got)
	}
	if got := p.Cluster.AdmissionCacheSize(); got != cacheBefore {
		t.Fatalf("verdict cache went from %d to %d during a cancelled deploy", cacheBefore, got)
	}
}
