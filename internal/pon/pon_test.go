package pon

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"genio/internal/pki"
)

func testCA(t *testing.T) (*pki.CA, *pki.Identity) {
	t.Helper()
	ca, err := pki.NewCA("genio-root")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	oltID, err := ca.Issue("olt-01", pki.RoleOLT)
	if err != nil {
		t.Fatalf("Issue OLT: %v", err)
	}
	return ca, oltID
}

func newOLT(t *testing.T, mode SecurityMode) (*OLT, *pki.CA) {
	t.Helper()
	ca, oltID := testCA(t)
	olt, err := NewOLT("olt-01", mode, ca, oltID)
	if err != nil {
		t.Fatalf("NewOLT: %v", err)
	}
	return olt, ca
}

func issuedONU(t *testing.T, ca *pki.CA, serial string) *ONU {
	t.Helper()
	id, err := ca.Issue(serial, pki.RoleONU)
	if err != nil {
		t.Fatalf("Issue %s: %v", serial, err)
	}
	return NewONU(serial, id)
}

func TestActivateAndDeliverPlaintext(t *testing.T) {
	olt, _ := newOLT(t, ModePlaintext)
	onu := NewONU("onu-1", nil)
	if err := olt.Activate(onu); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if err := olt.SendDownstream(onu.Port(), []byte("hi")); err != nil {
		t.Fatalf("SendDownstream: %v", err)
	}
	got := onu.Received()
	if len(got) != 1 || !bytes.Equal(got[0].Payload, []byte("hi")) {
		t.Fatalf("Received = %+v", got)
	}
}

func TestActivateDuplicateSerial(t *testing.T) {
	olt, _ := newOLT(t, ModePlaintext)
	if err := olt.Activate(NewONU("onu-1", nil)); err != nil {
		t.Fatal(err)
	}
	if err := olt.Activate(NewONU("onu-1", nil)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestSendToUnactivatedPort(t *testing.T) {
	olt, _ := newOLT(t, ModePlaintext)
	if err := olt.SendDownstream(42, []byte("x")); !errors.Is(err, ErrNotActivated) {
		t.Fatalf("err = %v, want ErrNotActivated", err)
	}
}

func TestPlaintextDownstreamVisibleToTap(t *testing.T) {
	olt, _ := newOLT(t, ModePlaintext)
	onu := NewONU("onu-1", nil)
	if err := olt.Activate(onu); err != nil {
		t.Fatal(err)
	}
	var captured []XGEMFrame
	olt.AttachTap(TapFunc(func(f XGEMFrame) { captured = append(captured, f) }))
	secret := []byte("meter-reading-12345")
	if err := olt.SendDownstream(onu.Port(), secret); err != nil {
		t.Fatal(err)
	}
	if len(captured) != 1 {
		t.Fatalf("tap captured %d frames, want 1", len(captured))
	}
	if !bytes.Equal(captured[0].Payload, secret) {
		t.Fatal("plaintext mode must expose payload to a fiber tap (T1)")
	}
}

func TestEncryptedDownstreamOpaqueToTap(t *testing.T) {
	olt, ca := newOLT(t, ModeAuthenticated)
	onu := issuedONU(t, ca, "onu-1")
	if err := olt.Activate(onu); err != nil {
		t.Fatal(err)
	}
	var captured []XGEMFrame
	olt.AttachTap(TapFunc(func(f XGEMFrame) { captured = append(captured, f) }))
	secret := []byte("meter-reading-12345")
	if err := olt.SendDownstream(onu.Port(), secret); err != nil {
		t.Fatal(err)
	}
	if len(captured) != 1 {
		t.Fatalf("tap captured %d frames, want 1", len(captured))
	}
	if bytes.Contains(captured[0].Payload, secret) {
		t.Fatal("encrypted mode leaked payload to tap")
	}
	// The legitimate ONU still decrypts.
	got := onu.Received()
	if len(got) != 1 || !bytes.Equal(got[0].Payload, secret) {
		t.Fatalf("ONU received %+v", got)
	}
}

func TestOtherONUCannotDecryptForeignPort(t *testing.T) {
	olt, ca := newOLT(t, ModeAuthenticated)
	onu1 := issuedONU(t, ca, "onu-1")
	onu2 := issuedONU(t, ca, "onu-2")
	if err := olt.Activate(onu1); err != nil {
		t.Fatal(err)
	}
	if err := olt.Activate(onu2); err != nil {
		t.Fatal(err)
	}
	if err := olt.SendDownstream(onu1.Port(), []byte("for-onu1")); err != nil {
		t.Fatal(err)
	}
	if n := len(onu2.Received()); n != 0 {
		t.Fatalf("onu2 received %d frames addressed to onu1", n)
	}
}

func TestRogueONURejectedInAuthenticatedMode(t *testing.T) {
	olt, _ := newOLT(t, ModeAuthenticated)
	rogue := NewONU("onu-rogue", nil) // no certificate at all
	if err := olt.Activate(rogue); !errors.Is(err, ErrAuthRequired) {
		t.Fatalf("err = %v, want ErrAuthRequired", err)
	}
	// A certificate from a different CA must also fail.
	otherCA, err := pki.NewCA("evil-root")
	if err != nil {
		t.Fatal(err)
	}
	fakeID, err := otherCA.Issue("onu-fake", pki.RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	if err := olt.Activate(NewONU("onu-fake", fakeID)); err == nil {
		t.Fatal("rogue ONU with foreign certificate activated")
	}
	st := olt.Stats()
	if st.AuthFailures != 2 {
		t.Fatalf("AuthFailures = %d, want 2", st.AuthFailures)
	}
}

func TestRogueONUAcceptedInEncryptedMode(t *testing.T) {
	// ModeEncrypted documents the insecure-default posture: encryption
	// without authentication admits any serial (the gap M4 closes).
	olt, _ := newOLT(t, ModeEncrypted)
	rogue := NewONU("onu-rogue", nil)
	if err := olt.Activate(rogue); err != nil {
		t.Fatalf("Activate in encrypted mode: %v", err)
	}
}

func TestReplayInjectionRejectedWhenEncrypted(t *testing.T) {
	olt, ca := newOLT(t, ModeAuthenticated)
	onu := issuedONU(t, ca, "onu-1")
	if err := olt.Activate(onu); err != nil {
		t.Fatal(err)
	}
	var captured []XGEMFrame
	olt.AttachTap(TapFunc(func(f XGEMFrame) { captured = append(captured, f) }))
	if err := olt.SendDownstream(onu.Port(), []byte("cmd: open-valve")); err != nil {
		t.Fatal(err)
	}
	// Attacker replays the captured ciphertext frame verbatim.
	errs := olt.InjectDownstream(captured[0])
	if len(errs) == 0 {
		t.Fatal("replayed frame was accepted")
	}
	if !errors.Is(errs[0], ErrReplay) {
		t.Fatalf("err = %v, want ErrReplay", errs[0])
	}
	if got := len(onu.Received()); got != 1 {
		t.Fatalf("ONU processed %d frames, want 1 (replay must not duplicate)", got)
	}
	if onu.Rejected() != 1 {
		t.Fatalf("Rejected = %d, want 1", onu.Rejected())
	}
}

func TestReplaySucceedsInPlaintextMode(t *testing.T) {
	olt, _ := newOLT(t, ModePlaintext)
	onu := NewONU("onu-1", nil)
	if err := olt.Activate(onu); err != nil {
		t.Fatal(err)
	}
	var captured []XGEMFrame
	olt.AttachTap(TapFunc(func(f XGEMFrame) { captured = append(captured, f) }))
	if err := olt.SendDownstream(onu.Port(), []byte("cmd")); err != nil {
		t.Fatal(err)
	}
	if errs := olt.InjectDownstream(captured[0]); len(errs) != 0 {
		t.Fatalf("plaintext replay rejected: %v", errs)
	}
	if got := len(onu.Received()); got != 2 {
		t.Fatalf("ONU processed %d frames, want 2 (plaintext accepts replays, T1)", got)
	}
}

func TestForgedFrameRejectedWhenEncrypted(t *testing.T) {
	olt, ca := newOLT(t, ModeAuthenticated)
	onu := issuedONU(t, ca, "onu-1")
	if err := olt.Activate(onu); err != nil {
		t.Fatal(err)
	}
	forged := XGEMFrame{Port: onu.Port(), Seq: 99, Encrypted: true, Payload: []byte("evil")}
	errs := olt.InjectDownstream(forged)
	if len(errs) == 0 || !errors.Is(errs[0], ErrDecrypt) {
		t.Fatalf("errs = %v, want ErrDecrypt", errs)
	}
}

func TestKeyRotationKeepsChannelWorking(t *testing.T) {
	olt, ca := newOLT(t, ModeAuthenticated)
	onu := issuedONU(t, ca, "onu-1")
	if err := olt.Activate(onu); err != nil {
		t.Fatal(err)
	}
	if err := olt.SendDownstream(onu.Port(), []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := olt.RotateKeys(); err != nil {
		t.Fatalf("RotateKeys: %v", err)
	}
	if err := olt.SendDownstream(onu.Port(), []byte("after")); err != nil {
		t.Fatalf("SendDownstream after rotation: %v", err)
	}
	got := onu.Received()
	if len(got) != 2 || !bytes.Equal(got[1].Payload, []byte("after")) {
		t.Fatalf("Received = %+v", got)
	}
}

func TestOldKeyUselessAfterRotation(t *testing.T) {
	kr := NewKeyRing()
	var key [32]byte
	key[0] = 7
	kr.SetKey(1, key)
	frame, err := kr.EncryptFrame(1, 1, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if err := kr.Rotate(1); err != nil {
		t.Fatal(err)
	}
	if _, err := kr.DecryptFrame(frame); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("err = %v, want ErrDecrypt after rotation", err)
	}
	if kr.Epoch(1) != 2 {
		t.Fatalf("Epoch = %d, want 2", kr.Epoch(1))
	}
}

func TestKeyRingErrors(t *testing.T) {
	kr := NewKeyRing()
	if err := kr.Rotate(9); !errors.Is(err, ErrNoKey) {
		t.Fatalf("Rotate err = %v, want ErrNoKey", err)
	}
	if _, err := kr.EncryptFrame(9, 1, nil); !errors.Is(err, ErrNoKey) {
		t.Fatalf("EncryptFrame err = %v, want ErrNoKey", err)
	}
	if _, err := kr.DecryptFrame(XGEMFrame{Port: 9, Encrypted: false}); !errors.Is(err, ErrPlaintext) {
		t.Fatalf("DecryptFrame err = %v, want ErrPlaintext", err)
	}
	if kr.HasKey(9) {
		t.Fatal("HasKey(9) = true")
	}
}

func TestAuthenticatedModeRequiresCA(t *testing.T) {
	if _, err := NewOLT("olt", ModeAuthenticated, nil, nil); err == nil {
		t.Fatal("NewOLT accepted authenticated mode without CA")
	}
}

func TestStatsAndActiveONUs(t *testing.T) {
	olt, ca := newOLT(t, ModeAuthenticated)
	for _, s := range []string{"onu-1", "onu-2", "onu-3"} {
		if err := olt.Activate(issuedONU(t, ca, s)); err != nil {
			t.Fatal(err)
		}
	}
	st := olt.Stats()
	if st.Activated != 3 || st.Mode != "authenticated" {
		t.Fatalf("Stats = %+v", st)
	}
	if got := len(olt.ActiveONUs()); got != 3 {
		t.Fatalf("ActiveONUs = %d, want 3", got)
	}
}

func TestSecurityModeString(t *testing.T) {
	if ModePlaintext.String() != "plaintext" || SecurityMode(9).String() != "mode(9)" {
		t.Fatal("SecurityMode.String mismatch")
	}
}

// Property: encrypt/decrypt round-trips arbitrary payloads for any port/seq.
func TestFrameRoundTripProperty(t *testing.T) {
	kr := NewKeyRing()
	var key [32]byte
	key[3] = 9
	kr.SetKey(5, key)
	f := func(payload []byte, seq uint64) bool {
		fr, err := kr.EncryptFrame(5, seq, payload)
		if err != nil {
			return false
		}
		pt, err := kr.DecryptFrame(fr)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a frame encrypted for one port never decrypts on another.
func TestCrossPortIsolationProperty(t *testing.T) {
	kr := NewKeyRing()
	var k1, k2 [32]byte
	k1[0], k2[0] = 1, 2
	kr.SetKey(1, k1)
	kr.SetKey(2, k2)
	f := func(payload []byte, seq uint64) bool {
		fr, err := kr.EncryptFrame(1, seq, payload)
		if err != nil {
			return false
		}
		fr.Port = 2 // attacker re-labels the frame
		_, err = kr.DecryptFrame(fr)
		return errors.Is(err, ErrDecrypt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPONEncryptedFrame: per-operation cost behind Lesson 2 (encryption).
func BenchmarkPONEncryptedFrame(b *testing.B) {
	kr := NewKeyRing()
	var key [32]byte
	key[0] = 7
	kr.SetKey(1, key)
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := kr.EncryptFrame(1, uint64(i+1), payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := kr.DecryptFrame(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnboardingHandshake: per-operation cost behind Lesson 2 (encryption).
func BenchmarkOnboardingHandshake(b *testing.B) {
	ca, err := pki.NewCA("bench-root")
	if err != nil {
		b.Fatal(err)
	}
	oltID, err := ca.Issue("olt", pki.RoleOLT)
	if err != nil {
		b.Fatal(err)
	}
	olt, err := NewOLT("olt", ModeAuthenticated, ca, oltID)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial := fmt.Sprintf("onu-%d", i)
		id, err := ca.Issue(serial, pki.RoleONU)
		if err != nil {
			b.Fatal(err)
		}
		if err := olt.Activate(NewONU(serial, id)); err != nil {
			b.Fatal(err)
		}
	}
}
