package updates

import (
	"errors"
	"testing"

	"genio/internal/host"
	"genio/internal/tpm"
)

func setup(t *testing.T) (*Repository, *Client, *host.Host) {
	t.Helper()
	repo, err := NewRepository("genio-main")
	if err != nil {
		t.Fatalf("NewRepository: %v", err)
	}
	h := host.New("node1", "onl-debian10")
	return repo, NewClient(repo.PublicKey(), h), h
}

func TestInstallSignedPackage(t *testing.T) {
	repo, client, h := setup(t)
	a := repo.Publish("genio-agent", "1.2.0", []byte("agent-binary"))
	if err := client.Install(repo.Metadata(), a); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if v, ok := h.PackageVersion("genio-agent"); !ok || v != "1.2.0" {
		t.Fatalf("installed version = %q, %v", v, ok)
	}
	if client.Installed != 1 || client.Rejected != 0 {
		t.Fatalf("counters = %d/%d", client.Installed, client.Rejected)
	}
}

func TestTamperedPackageRejected(t *testing.T) {
	repo, client, h := setup(t)
	a := repo.Publish("genio-agent", "1.2.0", []byte("agent-binary"))
	md := repo.Metadata()
	a.Data = []byte("trojaned-binary")
	if err := client.Install(md, a); !errors.Is(err, ErrBadDigest) {
		t.Fatalf("err = %v, want ErrBadDigest", err)
	}
	if _, ok := h.PackageVersion("genio-agent"); ok {
		t.Fatal("tampered package installed")
	}
	if client.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", client.Rejected)
	}
}

func TestForeignRepoKeyRejected(t *testing.T) {
	repo, client, _ := setup(t)
	evil, err := NewRepository("evil-mirror")
	if err != nil {
		t.Fatal(err)
	}
	// Attacker serves their own metadata and package.
	a := evil.Publish("genio-agent", "1.2.1", []byte("backdoored"))
	if err := client.Install(evil.Metadata(), a); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
	_ = repo
}

func TestPackageNotInMetadata(t *testing.T) {
	repo, client, _ := setup(t)
	md := repo.Metadata() // empty index
	rogue := PackageArtifact{Name: "x", Version: "1", Data: []byte("d"), Digest: digestOf([]byte("d"))}
	if err := client.Install(md, rogue); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestMetadataTamperRejected(t *testing.T) {
	repo, client, _ := setup(t)
	a := repo.Publish("genio-agent", "1.2.0", []byte("bin"))
	md := repo.Metadata()
	// Attacker swaps the digest to whitelist a trojan.
	md.Digests["genio-agent/1.2.0"] = digestOf([]byte("trojan"))
	a.Data = []byte("trojan")
	a.Digest = digestOf([]byte("trojan"))
	if err := client.Install(md, a); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature (metadata re-signing must fail)", err)
	}
}

func onieSetup(t *testing.T) (*ONIE, *ImageSigner) {
	t.Helper()
	tp, err := tpm.New()
	if err != nil {
		t.Fatal(err)
	}
	signer, err := NewImageSigner("genio-build")
	if err != nil {
		t.Fatal(err)
	}
	ProvisionTrustAnchor(tp, signer.PublicKey())
	return &ONIE{TPM: tp, MinimalEnvVerified: true, CurrentVersion: "onl-4.19.81"}, signer
}

func TestONIEApplySignedImage(t *testing.T) {
	onie, signer := onieSetup(t)
	img := OSImage{Version: "onl-4.19.300", Data: []byte("new-os-image")}
	if err := onie.Apply(img, signer.Sign(img)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if onie.CurrentVersion != "onl-4.19.300" {
		t.Fatalf("CurrentVersion = %s", onie.CurrentVersion)
	}
}

func TestONIERejectsTamperedImage(t *testing.T) {
	onie, signer := onieSetup(t)
	img := OSImage{Version: "onl-4.19.300", Data: []byte("new-os-image")}
	sig := signer.Sign(img)
	img.Data = []byte("evil-os-image")
	if err := onie.Apply(img, sig); !errors.Is(err, ErrBadDigest) {
		t.Fatalf("err = %v, want ErrBadDigest", err)
	}
	if onie.CurrentVersion != "onl-4.19.81" {
		t.Fatal("tampered image changed installed version")
	}
}

func TestONIERejectsForeignSigner(t *testing.T) {
	onie, _ := onieSetup(t)
	evil, err := NewImageSigner("evil-build")
	if err != nil {
		t.Fatal(err)
	}
	img := OSImage{Version: "onl-9.9.9", Data: []byte("evil")}
	if err := onie.Apply(img, evil.Sign(img)); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestONIERejectsDowngradedSignatureVersionSwap(t *testing.T) {
	// Signature binds the version string: re-labelling an old image as a
	// new version must fail.
	onie, signer := onieSetup(t)
	oldImg := OSImage{Version: "onl-4.19.81", Data: []byte("old-image")}
	sig := signer.Sign(oldImg)
	relabelled := OSImage{Version: "onl-4.19.300", Data: []byte("old-image")}
	if err := onie.Apply(relabelled, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestONIERequiresMinimalEnvironment(t *testing.T) {
	onie, signer := onieSetup(t)
	onie.MinimalEnvVerified = false // applying from the full (untrusted) OS
	img := OSImage{Version: "onl-4.19.300", Data: []byte("new")}
	if err := onie.Apply(img, signer.Sign(img)); !errors.Is(err, ErrInsecureApply) {
		t.Fatalf("err = %v, want ErrInsecureApply", err)
	}
}

func TestONIERequiresTrustAnchor(t *testing.T) {
	tp, err := tpm.New()
	if err != nil {
		t.Fatal(err)
	}
	signer, err := NewImageSigner("genio-build")
	if err != nil {
		t.Fatal(err)
	}
	onie := &ONIE{TPM: tp, MinimalEnvVerified: true}
	img := OSImage{Version: "v", Data: []byte("d")}
	if err := onie.Apply(img, signer.Sign(img)); !errors.Is(err, ErrNoTrustAnchor) {
		t.Fatalf("err = %v, want ErrNoTrustAnchor", err)
	}
}

func TestVerifyImageWithoutApply(t *testing.T) {
	onie, signer := onieSetup(t)
	onie.MinimalEnvVerified = false
	img := OSImage{Version: "v2", Data: []byte("d")}
	// Verification is allowed anywhere; only Apply needs the minimal env.
	if err := onie.VerifyImage(img, signer.Sign(img)); err != nil {
		t.Fatalf("VerifyImage: %v", err)
	}
}

func TestAntiRollbackRefusesDowngrade(t *testing.T) {
	onie, signer := onieSetup(t)
	onie.AntiRollback = true
	newer := updates_OSImage("onl-4.19.300", "new")
	if err := onie.Apply(newer, signer.Sign(newer)); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	// A validly signed but older (vulnerable) release must be refused.
	older := updates_OSImage("onl-4.19.81", "old-vulnerable")
	if err := onie.Apply(older, signer.Sign(older)); !errors.Is(err, ErrRollback) {
		t.Fatalf("err = %v, want ErrRollback", err)
	}
	if onie.CurrentVersion != "onl-4.19.300" {
		t.Fatalf("version = %s after refused rollback", onie.CurrentVersion)
	}
	// Re-applying the same version is allowed (reinstall).
	same := updates_OSImage("onl-4.19.300", "new")
	if err := onie.Apply(same, signer.Sign(same)); err != nil {
		t.Fatalf("reinstall: %v", err)
	}
}

func TestRollbackAllowedWhenDisabled(t *testing.T) {
	onie, signer := onieSetup(t)
	onie.AntiRollback = false
	older := updates_OSImage("onl-4.18.0", "old")
	if err := onie.Apply(older, signer.Sign(older)); err != nil {
		t.Fatalf("downgrade with anti-rollback off: %v", err)
	}
}

// updates_OSImage is a tiny helper keeping the new tests compact.
func updates_OSImage(version, data string) OSImage {
	return OSImage{Version: version, Data: []byte(data)}
}

// BenchmarkUpdateVerify: per-operation cost behind Lesson 4 (updates).
func BenchmarkUpdateVerify(b *testing.B) {
	repo, err := NewRepository("bench")
	if err != nil {
		b.Fatal(err)
	}
	h := host.New("node", "onl")
	client := NewClient(repo.PublicKey(), h)
	pkg := repo.Publish("agent", "1.0", make([]byte, 4096))
	md := repo.Metadata()
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Install(md, pkg); err != nil {
			b.Fatal(err)
		}
	}
}
