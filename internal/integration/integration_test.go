// Package integration holds cross-module scenarios exercising chains of
// subsystems that no single package test covers: full node reboot cycles
// with tamper detection, fleet update rollouts, multi-tenant isolation
// reviews, and the complete incident pipeline.
package integration

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/orchestrator"
	"genio/internal/pki"
	"genio/internal/pon"
	"genio/internal/rbac"
	"genio/internal/sandbox"
	"genio/internal/secureboot"
	"genio/internal/storage"
	"genio/internal/tpm"
	"genio/internal/trace"
	"genio/internal/updates"
)

// TestRebootCycleDetectsKernelSwap walks a node through two boots: a clean
// one that seals the disk key to the measured kernel, then a boot of a
// tampered kernel with Secure Boot disabled by the attacker — Measured
// Boot still changes the PCRs, so the sealed key is not released and the
// tenant data stays dark.
func TestRebootCycleDetectsKernelSwap(t *testing.T) {
	signer, err := secureboot.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	chain := []secureboot.Component{
		signer.SignComponent(secureboot.StageShim, "shim", []byte("shim-15.8")),
		signer.SignComponent(secureboot.StageBootloader, "grub", []byte("grub-2.06")),
		signer.SignComponent(secureboot.StageKernel, "kernel", []byte("vmlinuz-good")),
	}

	// Boot 1: clean.
	tp, err := tpm.New()
	if err != nil {
		t.Fatal(err)
	}
	fw := secureboot.NewFirmware(signer.VendorPub, tp)
	if _, err := fw.Boot(signer.PlatformPub, chain); err != nil {
		t.Fatalf("clean boot: %v", err)
	}
	vol, err := storage.CreateVolume("data", "recovery")
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.Write("/tenant/db", []byte("records")); err != nil {
		t.Fatal(err)
	}
	cfg := storage.ClevisConfig{TPM: tp, PCRSelection: []int{tpm.PCRKernel}, HasTPMLibs: true}
	if err := vol.BindTPMSlot("clevis", cfg); err != nil {
		t.Fatal(err)
	}
	vol.Lock()
	if err := vol.UnlockTPM("clevis", tp); err != nil {
		t.Fatalf("clean unlock: %v", err)
	}
	vol.Lock()

	// Boot 2: attacker swaps the kernel AND disables Secure Boot. A fresh
	// power cycle resets PCRs — modelled by a fresh TPM state extended by
	// the new measurements only. We replay the tampered chain on a new TPM
	// bank and ask the *original* TPM object whether the sealed blob would
	// release under those PCRs; since sealing bound the original PCR state,
	// extending the real TPM further (as the next boot would) must deny.
	tampered := make([]secureboot.Component, len(chain))
	copy(tampered, chain)
	tampered[2].Image = []byte("vmlinuz-evil")
	fw.SecureBoot = false
	if _, err := fw.Boot(signer.PlatformPub, tampered); err != nil {
		t.Fatalf("tampered boot (secure boot off) should start: %v", err)
	}
	if err := vol.UnlockTPM("clevis", tp); err == nil {
		t.Fatal("sealed key released after kernel swap")
	}
	if !vol.Locked() {
		t.Fatal("volume unlocked despite failed release")
	}
}

// TestFleetUpdateRollout pushes a signed OS image to a fleet via ONIE and
// verifies nodes reject a tampered image served to a subset.
func TestFleetUpdateRollout(t *testing.T) {
	signer, err := updates.NewImageSigner("genio-build")
	if err != nil {
		t.Fatal(err)
	}
	img := updates.OSImage{Version: "onl-4.19.300", Data: []byte("new-release")}
	sig := signer.Sign(img)

	applied, rejected := 0, 0
	for i := 0; i < 6; i++ {
		tp, err := tpm.New()
		if err != nil {
			t.Fatal(err)
		}
		updates.ProvisionTrustAnchor(tp, signer.PublicKey())
		onie := &updates.ONIE{TPM: tp, MinimalEnvVerified: true, CurrentVersion: "onl-4.19.81"}
		serve := img
		if i%3 == 2 { // a compromised mirror serves a modified image
			serve.Data = []byte("new-release-with-implant")
		}
		if err := onie.Apply(serve, sig); err != nil {
			rejected++
			if onie.CurrentVersion != "onl-4.19.81" {
				t.Fatal("rejected update changed version")
			}
		} else {
			applied++
		}
	}
	if applied != 4 || rejected != 2 {
		t.Fatalf("applied=%d rejected=%d, want 4/2", applied, rejected)
	}
}

// TestMultiTenantIsolationReview builds a mixed cluster and checks the
// PEACH-style review reflects the posture and the VM placement.
func TestMultiTenantIsolationReview(t *testing.T) {
	reg := container.NewRegistry()
	reg.Push(container.AnalyticsImage(), nil)
	cluster := orchestrator.NewCluster("edge", reg, orchestrator.HardenedSettings())
	cluster.AddNode("n1", orchestrator.Resources{CPUMilli: 8000, MemoryMB: 8192})

	specs := []orchestrator.WorkloadSpec{
		{Name: "a1", Tenant: "acme", ImageRef: "acme/analytics:2.0.1", Isolation: orchestrator.IsolationHard,
			Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512}},
		{Name: "a2", Tenant: "acme", ImageRef: "acme/analytics:2.0.1", Isolation: orchestrator.IsolationSoft,
			Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512}},
		{Name: "b1", Tenant: "rival", ImageRef: "acme/analytics:2.0.1", Isolation: orchestrator.IsolationHard,
			Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512}},
		{Name: "b2", Tenant: "rival", ImageRef: "acme/analytics:2.0.1", Isolation: orchestrator.IsolationSoft,
			Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512}},
	}
	hard := 0
	for _, s := range specs {
		if _, err := cluster.DeployContext(context.Background(), "ops", s); err != nil {
			t.Fatalf("deploy %s: %v", s.Name, err)
		}
		if s.Isolation == orchestrator.IsolationHard {
			hard++
		}
	}
	// No VM hosts two tenants.
	for vm, tenants := range cluster.SharedVMTenants() {
		if len(tenants) > 1 {
			t.Fatalf("vm %s mixes tenants %v", vm, tenants)
		}
	}
	share := float64(hard) / float64(len(specs))
	rev := sandbox.ReviewIsolation(cluster, share)
	if rev.Total() < rev.Max()-1 {
		t.Fatalf("hardened mixed cluster scored %d/%d: %+v", rev.Total(), rev.Max(), rev.Factors)
	}
}

// TestIncidentPipelineAttribution runs an attack through the full platform
// and checks every stage attributes incidents to the right source.
func TestIncidentPipelineAttribution(t *testing.T) {
	p, err := core.New(core.SecureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddEdgeNode("olt-01", orchestrator.Resources{CPUMilli: 8000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	pub, err := container.NewPublisher("acme")
	if err != nil {
		t.Fatal(err)
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	// Insider threat: trusted publisher signs a malicious image, so it
	// passes signatures and must be caught by admission scanning.
	miner := container.CryptominerImage()
	minerSig := pub.Sign(miner)
	p.Registry.Push(miner, &minerSig)
	web := container.AnalyticsImage()
	webSig := pub.Sign(web)
	p.Registry.Push(web, &webSig)

	p.RBAC.SetRole(rbac.Role{Name: "dep", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
	}})
	if err := p.RBAC.Bind("ci", "dep"); err != nil {
		t.Fatal(err)
	}

	if _, err := p.DeployContext(context.Background(), "ci", orchestrator.WorkloadSpec{
		Name: "miner", Tenant: "acme", ImageRef: miner.Ref(),
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 100, MemoryMB: 128},
	}); !errors.Is(err, orchestrator.ErrDenied) {
		t.Fatalf("insider miner err = %v, want ErrDenied", err)
	}

	if _, err := p.DeployContext(context.Background(), "ci", orchestrator.WorkloadSpec{
		Name: "web", Tenant: "acme", ImageRef: web.Ref(),
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 100, MemoryMB: 128},
	}); err != nil {
		t.Fatal(err)
	}
	p.ObserveRuntime(trace.ReverseShellTrace("web", "acme"))

	counts := p.IncidentCounts()
	if counts["admission"] == 0 {
		t.Error("no admission incident for insider miner")
	}
	if counts["sandbox"] == 0 {
		t.Error("no sandbox incident for reverse shell")
	}
}

// TestPONDataPathEndToEnd moves data down and up a secured PON tree and
// confirms byte-for-byte delivery with all protections active.
func TestPONDataPathEndToEnd(t *testing.T) {
	ca, err := pki.NewCA("root")
	if err != nil {
		t.Fatal(err)
	}
	oltID, err := ca.Issue("olt", pki.RoleOLT)
	if err != nil {
		t.Fatal(err)
	}
	olt, err := pon.NewOLT("olt", pon.ModeAuthenticated, ca, oltID)
	if err != nil {
		t.Fatal(err)
	}
	onuID, err := ca.Issue("onu-1", pki.RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	onu := pon.NewONU("onu-1", onuID)
	if err := olt.Activate(onu); err != nil {
		t.Fatal(err)
	}

	down := []byte("config-push-v7")
	if err := olt.SendDownstream(onu.Port(), down); err != nil {
		t.Fatal(err)
	}
	got := onu.Received()
	if len(got) != 1 || !bytes.Equal(got[0].Payload, down) {
		t.Fatalf("downstream = %+v", got)
	}

	up := []byte("sensor-batch-001")
	if err := onu.QueueUpstream(up); err != nil {
		t.Fatal(err)
	}
	res, err := olt.RunDBACycle(pon.DBAConfig{CycleBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	delivered := res.Delivered["onu-1"]
	if len(delivered) != 1 || !bytes.Equal(delivered[0], up) {
		t.Fatalf("upstream = %q", delivered)
	}

	// Rotate keys mid-session; both directions keep working.
	if err := olt.RotateKeys(); err != nil {
		t.Fatal(err)
	}
	if err := olt.SendDownstream(onu.Port(), []byte("post-rotation")); err != nil {
		t.Fatalf("downstream after rotation: %v", err)
	}
	if err := onu.QueueUpstream([]byte("up-post-rotation")); err != nil {
		t.Fatal(err)
	}
	if _, err := olt.RunDBACycle(pon.DBAConfig{CycleBytes: 4096}); err != nil {
		t.Fatalf("upstream after rotation: %v", err)
	}
}
