package secureboot

import (
	"errors"
	"testing"

	"genio/internal/tpm"
)

func testChain(t *testing.T, s *Signer) []Component {
	t.Helper()
	return []Component{
		s.SignComponent(StageShim, "shim", []byte("shim-image-v15")),
		s.SignComponent(StageBootloader, "grub", []byte("grub-image-2.06")),
		s.SignComponent(StageKernel, "kernel", []byte("vmlinuz-onl-4.19")),
		s.SignComponent(StageInitrd, "initrd", []byte("initrd-onl")),
		s.SignComponent(StageConfig, "cmdline", []byte("mitigations=auto quiet")),
	}
}

func newFirmware(t *testing.T, s *Signer) *Firmware {
	t.Helper()
	tp, err := tpm.New()
	if err != nil {
		t.Fatalf("tpm.New: %v", err)
	}
	return NewFirmware(s.VendorPub, tp)
}

func TestCleanBootSucceeds(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	fw := newFirmware(t, s)
	res, err := fw.Boot(s.PlatformPub, testChain(t, s))
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if !res.Booted || len(res.Verified) != 5 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.PCRs) == 0 {
		t.Fatal("no PCRs recorded")
	}
}

func TestTamperedKernelBlocked(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	fw := newFirmware(t, s)
	chain := testChain(t, s)
	chain[2].Image = []byte("evil-kernel") // signature now stale
	res, err := fw.Boot(s.PlatformPub, chain)
	if !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification", err)
	}
	if res.Booted {
		t.Fatal("tampered chain booted")
	}
	if res.FailedStage != "kernel" {
		t.Fatalf("FailedStage = %q, want kernel", res.FailedStage)
	}
}

func TestUnsignedShimBlocked(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := NewSigner() // attacker's own keys
	if err != nil {
		t.Fatal(err)
	}
	fw := newFirmware(t, s)
	chain := testChain(t, rogue) // entire chain signed by rogue keys
	if _, err := fw.Boot(rogue.PlatformPub, chain); !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification (vendor anchor must reject rogue shim)", err)
	}
}

func TestSecureBootOffBootsTamperedChain(t *testing.T) {
	// With Secure Boot disabled the tampered chain boots — but Measured
	// Boot still records the divergence, which sealed storage detects.
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	fw := newFirmware(t, s)
	fw.SecureBoot = false
	chain := testChain(t, s)
	chain[2].Image = []byte("evil-kernel")
	res, err := fw.Boot(s.PlatformPub, chain)
	if err != nil || !res.Booted {
		t.Fatalf("Boot = %+v, %v", res, err)
	}
	golden := GoldenPCRs(testChain(t, s))
	if res.PCRs[tpm.PCRKernel] == golden[tpm.PCRKernel] {
		t.Fatal("tampered kernel produced golden PCR value")
	}
}

func TestGoldenPCRsMatchCleanBoot(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	fw := newFirmware(t, s)
	chain := testChain(t, s)
	res, err := fw.Boot(s.PlatformPub, chain)
	if err != nil {
		t.Fatal(err)
	}
	golden := GoldenPCRs(chain)
	for pcr, want := range golden {
		if res.PCRs[pcr] != want {
			t.Errorf("PCR %d = %s, want golden %s", pcr, res.PCRs[pcr], want)
		}
	}
}

func TestChainOrderEnforced(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	fw := newFirmware(t, s)
	chain := testChain(t, s)
	// Kernel before bootloader.
	bad := []Component{chain[0], chain[2], chain[1]}
	if _, err := fw.Boot(s.PlatformPub, bad); !errors.Is(err, ErrChainOrder) {
		t.Fatalf("err = %v, want ErrChainOrder", err)
	}
	// Missing shim.
	if _, err := fw.Boot(s.PlatformPub, chain[1:]); !errors.Is(err, ErrChainOrder) {
		t.Fatalf("err = %v, want ErrChainOrder", err)
	}
	// Empty chain.
	if _, err := fw.Boot(s.PlatformPub, nil); !errors.Is(err, ErrChainOrder) {
		t.Fatalf("err = %v, want ErrChainOrder", err)
	}
}

func TestAttestationDetectsTamperAfterBoot(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	tp, err := tpm.New()
	if err != nil {
		t.Fatal(err)
	}
	fw := NewFirmware(s.VendorPub, tp)
	fw.SecureBoot = false // attacker disabled verification
	chain := testChain(t, s)
	chain[2].Image = []byte("evil-kernel")
	if _, err := fw.Boot(s.PlatformPub, chain); err != nil {
		t.Fatal(err)
	}
	// Remote verifier quotes the kernel PCR and compares to golden.
	q, err := tp.Quote([]int{tpm.PCRKernel}, []byte("nonce"))
	if err != nil {
		t.Fatal(err)
	}
	golden := GoldenPCRs(testChain(t, s))
	err = tpm.VerifyQuote(tp.AttestationPublicKey(), q, map[int]tpm.Digest{tpm.PCRKernel: golden[tpm.PCRKernel]})
	if !errors.Is(err, tpm.ErrBadQuote) {
		t.Fatalf("err = %v, want ErrBadQuote (attestation must catch tampering)", err)
	}
}

func TestStageString(t *testing.T) {
	if StageShim.String() != "shim" || Stage(42).String() != "stage(42)" {
		t.Fatal("Stage.String mismatch")
	}
}

func TestRevokedComponentBlockedDespiteValidSignature(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	fw := newFirmware(t, s)
	chain := testChain(t, s)
	// The (validly signed) GRUB build is later found vulnerable and
	// revoked via dbx — it must no longer boot.
	fw.RevokeImage([]byte("grub-image-2.06"), "BootHole-class vulnerability")
	res, err := fw.Boot(s.PlatformPub, chain)
	if !errors.Is(err, ErrRevoked) {
		t.Fatalf("err = %v, want ErrRevoked", err)
	}
	if res.Booted || res.FailedStage != "grub" {
		t.Fatalf("result = %+v", res)
	}
}

func TestRevocationIgnoredWhenSecureBootOff(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	fw := newFirmware(t, s)
	fw.SecureBoot = false
	fw.RevokeImage([]byte("grub-image-2.06"), "revoked")
	if _, err := fw.Boot(s.PlatformPub, testChain(t, s)); err != nil {
		t.Fatalf("dbx must be a Secure Boot feature; boot failed: %v", err)
	}
}

func TestPatchedComponentBootsAfterRevocation(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	fw := newFirmware(t, s)
	fw.RevokeImage([]byte("grub-image-2.06"), "vulnerable build")
	chain := testChain(t, s)
	chain[1] = s.SignComponent(StageBootloader, "grub", []byte("grub-image-2.12"))
	res, err := fw.Boot(s.PlatformPub, chain)
	if err != nil || !res.Booted {
		t.Fatalf("patched grub rejected: %v", err)
	}
}
