package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"genio/internal/container"
	"genio/internal/orchestrator"
	"genio/internal/secureboot"
)

var nodeCap = orchestrator.Resources{CPUMilli: 8000, MemoryMB: 16384}

// cancelAfter is a context whose Err turns context.Canceled after it has
// answered nil `left` times — a cancellation that lands between two
// provisioning stages, deterministically.
type cancelAfter struct {
	context.Context
	left atomic.Int32
}

func newCancelAfter(n int32) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}

// assertNotJoined checks that a failed provisioning left nothing behind:
// no platform node, no cluster node, no goroutine.
func assertNotJoined(t *testing.T, p *Platform, name string, goroutines int) {
	t.Helper()
	var nf *orchestrator.NodeNotFoundError
	if _, err := p.Node(name); !errors.As(err, &nf) {
		t.Fatalf("Node(%s) err = %v, want *NodeNotFoundError", name, err)
	}
	if p.Cluster.HasNode(name) {
		t.Fatalf("cluster registered %s", name)
	}
	waitGoroutines(t, goroutines)
}

func bootIncidents(p *Platform) (n int) {
	for _, inc := range p.Incidents() {
		if inc.Source == "boot" && inc.Blocked {
			n++
		}
	}
	return n
}

// A platform chain whose kernel image no longer matches its signature
// fails every node's verified boot.
func TestOnboardBootFailure(t *testing.T) {
	p := securePlatform(t)
	defer p.Close()
	p.bootChain[2].Image[0] ^= 0xff
	before := runtime.NumGoroutine()
	if _, err := p.AddEdgeNode("olt-01", nodeCap); !errors.Is(err, ErrBootFailed) {
		t.Fatalf("err = %v, want ErrBootFailed", err)
	}
	if n := bootIncidents(p); n != 1 {
		t.Fatalf("blocked boot incidents = %d, want 1", n)
	}
	assertNotJoined(t, p, "olt-01", before)
}

// A validly signed but different kernel boots, and is caught by
// attestation against the platform's reference values.
func TestOnboardAttestationFailure(t *testing.T) {
	p := securePlatform(t)
	defer p.Close()
	p.bootChain[2] = p.Signer.SignComponent(secureboot.StageKernel, "kernel", []byte("vmlinuz-backdoored"))
	before := runtime.NumGoroutine()
	if _, err := p.AddEdgeNode("olt-01", nodeCap); !errors.Is(err, ErrAttestFailed) {
		t.Fatalf("err = %v, want ErrAttestFailed", err)
	}
	if n := bootIncidents(p); n != 1 {
		t.Fatalf("blocked boot incidents = %d, want 1", n)
	}
	assertNotJoined(t, p, "olt-01", before)
}

// Cancellation before the call (0) and at each check between stages
// returns ctx.Err() and registers nothing.
func TestOnboardCancellation(t *testing.T) {
	p := securePlatform(t)
	defer p.Close()
	before := runtime.NumGoroutine()
	for checks := int32(0); checks < 4; checks++ {
		name := fmt.Sprintf("olt-%d", checks)
		if _, err := p.AddEdgeNodeContext(newCancelAfter(checks), name, nodeCap); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at check %d: err = %v, want context.Canceled", checks, err)
		}
		assertNotJoined(t, p, name, before)
	}
	if n := len(p.Incidents()); n != 0 {
		t.Fatalf("cancellation recorded %d incidents", n)
	}
	addNode(t, p, "olt-0") // a retry of an abandoned name starts from scratch
}

// Every node boots its own copy of the platform chain: tampering with one
// node's copy reaches neither another node's nor the platform's.
func TestOnboardChainIsolation(t *testing.T) {
	p := securePlatform(t)
	defer p.Close()
	a, b := addNode(t, p, "olt-a"), addNode(t, p, "olt-b")
	kernel := bytes.Clone(p.bootChain[2].Image)
	a.Chain[2].Image[0] ^= 0xff
	if !bytes.Equal(b.Chain[2].Image, kernel) || !bytes.Equal(p.bootChain[2].Image, kernel) {
		t.Fatal("tampering with node A's chain reached node B's or the platform's")
	}
	if _, err := a.Firmware.Boot(p.Signer.PlatformPub, a.Chain); !errors.Is(err, secureboot.ErrVerification) {
		t.Fatalf("re-boot of tampered chain: err = %v, want ErrVerification", err)
	}
	if _, err := b.Firmware.Boot(p.Signer.PlatformPub, b.Chain); err != nil {
		t.Fatalf("re-boot of node B: %v", err)
	}
	if c := addNode(t, p, "olt-c"); !c.Attested {
		t.Fatal("node joined after the tampering is not attested")
	}
}

// 32 concurrent onboardings, every fourth cancelled mid-flight, race
// deploys onto the nodes already joined.
func TestOnboardStorm(t *testing.T) {
	p := securePlatform(t)
	defer p.Close()
	pushSigned(t, p, container.AnalyticsImage())
	allowDeploy(t, p, "acme-ci", "acme")
	p.Cluster.SetQuota("acme", orchestrator.Resources{})
	addNode(t, p, "olt-seed")
	before := runtime.NumGoroutine()

	const joins = 32
	var wg sync.WaitGroup
	for i := 0; i < joins; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if i%4 == 3 {
				ctx = newCancelAfter(int32(1 + i%3))
			}
			_, err := p.AddEdgeNodeContext(ctx, fmt.Sprintf("olt-%02d", i), nodeCap)
			if (i%4 == 3) != errors.Is(err, context.Canceled) {
				t.Errorf("join %d: err = %v", i, err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := p.DeployContext(context.Background(), "acme-ci", orchestrator.WorkloadSpec{
				Name: fmt.Sprintf("analytics-%02d", i), Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
				Isolation: orchestrator.IsolationSoft,
				Resources: orchestrator.Resources{CPUMilli: 100, MemoryMB: 64},
			}); err != nil {
				t.Errorf("deploy %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	waitGoroutines(t, before)

	schedulable := make(map[string]bool)
	for _, u := range p.Cluster.Utilization() {
		schedulable[u.Node] = !u.Cordoned
	}
	for i := 0; i < joins; i++ {
		name := fmt.Sprintf("olt-%02d", i)
		n, err := p.Node(name)
		if i%4 == 3 {
			if err == nil || schedulable[name] {
				t.Errorf("cancelled %s was registered", name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("survivor %s: %v", name, err)
		}
		if !n.Attested || n.Volume.Locked() || n.ManualUnlock || !schedulable[name] {
			t.Errorf("survivor %s: attested=%v locked=%v manual=%v schedulable=%v",
				name, n.Attested, n.Volume.Locked(), n.ManualUnlock, schedulable[name])
		}
	}
}
