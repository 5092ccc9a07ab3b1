package storage

import (
	"bytes"
	"errors"
	"testing"

	"genio/internal/tpm"
)

func newVolume(t *testing.T) *Volume {
	t.Helper()
	v, err := CreateVolume("data0", "correct horse battery")
	if err != nil {
		t.Fatalf("CreateVolume: %v", err)
	}
	return v
}

func newTPM(t *testing.T) *tpm.TPM {
	t.Helper()
	tp, err := tpm.New()
	if err != nil {
		t.Fatalf("tpm.New: %v", err)
	}
	return tp
}

func TestWriteReadRoundTrip(t *testing.T) {
	v := newVolume(t)
	if err := v.Write("/tenant/a.db", []byte("rows")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := v.Read("/tenant/a.db")
	if err != nil || !bytes.Equal(got, []byte("rows")) {
		t.Fatalf("Read = %q, %v", got, err)
	}
}

func TestLockedVolumeDeniesIO(t *testing.T) {
	v := newVolume(t)
	if err := v.Write("/x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v.Lock()
	if !v.Locked() {
		t.Fatal("Locked() = false after Lock")
	}
	if _, err := v.Read("/x"); !errors.Is(err, ErrLocked) {
		t.Fatalf("Read err = %v, want ErrLocked", err)
	}
	if err := v.Write("/y", []byte("2")); !errors.Is(err, ErrLocked) {
		t.Fatalf("Write err = %v, want ErrLocked", err)
	}
}

func TestPassphraseUnlock(t *testing.T) {
	v := newVolume(t)
	if err := v.Write("/x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v.Lock()
	if err := v.UnlockPassphrase("passphrase", "wrong"); !errors.Is(err, ErrBadPassphrase) {
		t.Fatalf("err = %v, want ErrBadPassphrase", err)
	}
	if err := v.UnlockPassphrase("passphrase", "correct horse battery"); err != nil {
		t.Fatalf("UnlockPassphrase: %v", err)
	}
	got, err := v.Read("/x")
	if err != nil || !bytes.Equal(got, []byte("1")) {
		t.Fatalf("Read = %q, %v", got, err)
	}
	total, manual := v.UnlockStats()
	if total != 1 || manual != 1 {
		t.Fatalf("UnlockStats = %d, %d", total, manual)
	}
}

func TestTPMAutoUnlock(t *testing.T) {
	v := newVolume(t)
	tp := newTPM(t)
	if _, err := tp.Extend(tpm.PCRKernel, "kernel", []byte("good-kernel")); err != nil {
		t.Fatal(err)
	}
	cfg := ClevisConfig{TPM: tp, PCRSelection: []int{tpm.PCRKernel}, HasTPMLibs: true}
	if err := v.BindTPMSlot("clevis", cfg); err != nil {
		t.Fatalf("BindTPMSlot: %v", err)
	}
	if err := v.Write("/x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v.Lock()
	if err := v.UnlockTPM("clevis", tp); err != nil {
		t.Fatalf("UnlockTPM: %v", err)
	}
	got, err := v.Read("/x")
	if err != nil || !bytes.Equal(got, []byte("1")) {
		t.Fatalf("Read = %q, %v", got, err)
	}
	total, manual := v.UnlockStats()
	if total != 1 || manual != 0 {
		t.Fatalf("UnlockStats = %d, %d (TPM unlock must not count as manual)", total, manual)
	}
}

func TestTPMUnlockFailsAfterTamperedBoot(t *testing.T) {
	v := newVolume(t)
	tp := newTPM(t)
	if _, err := tp.Extend(tpm.PCRKernel, "kernel", []byte("good-kernel")); err != nil {
		t.Fatal(err)
	}
	cfg := ClevisConfig{TPM: tp, PCRSelection: []int{tpm.PCRKernel}, HasTPMLibs: true}
	if err := v.BindTPMSlot("clevis", cfg); err != nil {
		t.Fatal(err)
	}
	v.Lock()
	// Next boot measures a different kernel.
	if _, err := tp.Extend(tpm.PCRKernel, "kernel", []byte("evil-kernel")); err != nil {
		t.Fatal(err)
	}
	if err := v.UnlockTPM("clevis", tp); err == nil {
		t.Fatal("TPM released key despite tampered boot state")
	}
	if !v.Locked() {
		t.Fatal("volume unlocked after failed TPM release")
	}
}

func TestClevisUnavailableOnONL(t *testing.T) {
	// Lesson 3: ONL Debian 10 lacks the TPM libraries Clevis needs.
	v := newVolume(t)
	tp := newTPM(t)
	cfg := ClevisConfig{TPM: tp, PCRSelection: []int{tpm.PCRKernel}, HasTPMLibs: false}
	if err := v.BindTPMSlot("clevis", cfg); !errors.Is(err, ErrTPMUnavail) {
		t.Fatalf("err = %v, want ErrTPMUnavail", err)
	}
	// Operators fall back to the manual passphrase path.
	v.Lock()
	if err := v.UnlockPassphrase("passphrase", "correct horse battery"); err != nil {
		t.Fatal(err)
	}
	_, manual := v.UnlockStats()
	if manual != 1 {
		t.Fatalf("manual unlocks = %d, want 1", manual)
	}
}

func TestStolenDiskSeesOnlyCiphertext(t *testing.T) {
	v := newVolume(t)
	secret := []byte("customer-PII-records")
	if err := v.Write("/db", secret); err != nil {
		t.Fatal(err)
	}
	raw, ok := v.RawData("/db")
	if !ok {
		t.Fatal("RawData missing")
	}
	if bytes.Contains(raw, secret) {
		t.Fatal("plaintext visible on disk")
	}
	if _, ok := v.RawData("/missing"); ok {
		t.Fatal("RawData of missing path reported ok")
	}
}

func TestSlotManagement(t *testing.T) {
	v := newVolume(t)
	if err := v.AddPassphraseSlot("recovery", "backup-phrase"); err != nil {
		t.Fatal(err)
	}
	if got := len(v.slots); got != 2 {
		t.Fatalf("volume holds %d slots, want 2", got)
	}
	v.Lock()
	// Adding a slot while locked is impossible (no master key in memory).
	if err := v.AddPassphraseSlot("x", "y"); !errors.Is(err, ErrLocked) {
		t.Fatalf("err = %v, want ErrLocked", err)
	}
	if err := v.UnlockPassphrase("recovery", "backup-phrase"); err != nil {
		t.Fatalf("recovery unlock: %v", err)
	}
}

func TestUnlockUnknownSlot(t *testing.T) {
	v := newVolume(t)
	v.Lock()
	if err := v.UnlockPassphrase("nope", "x"); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("err = %v, want ErrNoSlot", err)
	}
	tp := newTPM(t)
	if err := v.UnlockTPM("nope", tp); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("err = %v, want ErrNoSlot", err)
	}
	// Wrong-kind slot: passphrase slot via UnlockTPM.
	if err := v.UnlockTPM("passphrase", tp); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("err = %v, want ErrNoSlot", err)
	}
}

func TestCorruptCiphertextDetected(t *testing.T) {
	v := newVolume(t)
	if err := v.Write("/x", []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in place (attacker with raw disk access).
	v.mu.Lock()
	v.data["/x"][len(v.data["/x"])-1] ^= 0xff
	v.mu.Unlock()
	if _, err := v.Read("/x"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestReadMissingPath(t *testing.T) {
	v := newVolume(t)
	if _, err := v.Read("/absent"); err == nil {
		t.Fatal("Read of missing path succeeded")
	}
}
