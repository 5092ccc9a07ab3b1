package pki

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"
)

func testCA(t *testing.T, opts ...CAOption) *CA {
	t.Helper()
	ca, err := NewCA("genio-root", opts...)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return ca
}

func TestIssueAndVerify(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("onu-001", RoleONU)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if err := ca.Verify(id.Certificate, RoleONU); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if ca.Issued() != 1 {
		t.Fatalf("Issued = %d, want 1", ca.Issued())
	}
}

func TestVerifyRejectsWrongRole(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("onu-001", RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Verify(id.Certificate, RoleOLT); !errors.Is(err, ErrBadRole) {
		t.Fatalf("err = %v, want ErrBadRole", err)
	}
	// Role 0 means "any role".
	if err := ca.Verify(id.Certificate, 0); err != nil {
		t.Fatalf("Verify any-role: %v", err)
	}
}

func TestVerifyRejectsForeignCA(t *testing.T) {
	ca := testCA(t)
	rogue := testCA(t)
	id, err := rogue.Issue("fake-onu", RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	err = ca.Verify(id.Certificate, RoleONU)
	if err == nil {
		t.Fatal("certificate from a foreign CA verified")
	}
	// Both CAs are named genio-root? No: each NewCA gets the same name here,
	// so the failure manifests as a bad signature rather than unknown issuer.
	if !errors.Is(err, ErrBadSignature) && !errors.Is(err, ErrUnknownCA) {
		t.Fatalf("err = %v, want ErrBadSignature or ErrUnknownCA", err)
	}
}

func TestVerifyRejectsTamperedCert(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("onu-001", RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	tampered := *id.Certificate
	tampered.Subject = "onu-evil"
	if err := ca.Verify(&tampered, RoleONU); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyRejectsExpired(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	ca := testCA(t, WithClock(clock), WithValidity(time.Hour))
	id, err := ca.Issue("onu-001", RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Verify(id.Certificate, RoleONU); err != nil {
		t.Fatalf("Verify before expiry: %v", err)
	}
	now = now.Add(2 * time.Hour)
	if err := ca.Verify(id.Certificate, RoleONU); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

func TestRevocation(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("onu-001", RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	ca.Revoke(id.Certificate.SerialNumber)
	if err := ca.Verify(id.Certificate, RoleONU); !errors.Is(err, ErrRevoked) {
		t.Fatalf("err = %v, want ErrRevoked", err)
	}
}

func TestVerifyNil(t *testing.T) {
	ca := testCA(t)
	if err := ca.Verify(nil, RoleONU); err == nil {
		t.Fatal("Verify(nil) succeeded")
	}
}

func TestIssueCARoleRejected(t *testing.T) {
	ca := testCA(t)
	if _, err := ca.IssueForKey("sub-ca", RoleCA, ca.Certificate().PublicKey); !errors.Is(err, ErrBadRole) {
		t.Fatalf("err = %v, want ErrBadRole", err)
	}
}

func TestRoleString(t *testing.T) {
	cases := map[Role]string{
		RoleCA:      "ca",
		RoleOLT:     "olt",
		RoleONU:     "onu",
		RoleCloud:   "cloud",
		RoleService: "service",
		Role(99):    "role(99)",
	}
	for role, want := range cases {
		if got := role.String(); got != want {
			t.Errorf("Role(%d).String() = %q, want %q", int(role), got, want)
		}
	}
}

func runHandshake(t *testing.T, ca *CA, client, server *Identity) (ck, sk SessionKeys, err error) {
	t.Helper()
	hc, err := NewHandshaker(client, ca, RoleOLT, true, rand.Reader)
	if err != nil {
		t.Fatalf("NewHandshaker client: %v", err)
	}
	hs, err := NewHandshaker(server, ca, RoleONU, false, rand.Reader)
	if err != nil {
		t.Fatalf("NewHandshaker server: %v", err)
	}
	offer, err := hc.Offer()
	if err != nil {
		return ck, sk, err
	}
	reply, err := hs.Accept(offer)
	if err != nil {
		return ck, sk, err
	}
	if err := hc.Finish(reply); err != nil {
		return ck, sk, err
	}
	ck, err = hc.SessionKeys()
	if err != nil {
		return ck, sk, err
	}
	sk, err = hs.SessionKeys()
	return ck, sk, err
}

func TestHandshakeMutualAuth(t *testing.T) {
	ca := testCA(t)
	onu, err := ca.Issue("onu-001", RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	olt, err := ca.Issue("olt-01", RoleOLT)
	if err != nil {
		t.Fatal(err)
	}
	ck, sk, err := runHandshake(t, ca, onu, olt)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if ck != sk {
		t.Fatal("client and server derived different session keys")
	}
	if ck.ClientToServer == ck.ServerToClient {
		t.Fatal("directional keys must differ")
	}
}

func TestHandshakeRejectsRogueONU(t *testing.T) {
	ca := testCA(t)
	rogueCA := testCA(t)
	rogueONU, err := rogueCA.Issue("onu-rogue", RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	olt, err := ca.Issue("olt-01", RoleOLT)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = runHandshake(t, ca, rogueONU, olt)
	if err == nil {
		t.Fatal("handshake with rogue ONU succeeded")
	}
}

func TestHandshakeRejectsRevokedPeer(t *testing.T) {
	ca := testCA(t)
	onu, err := ca.Issue("onu-001", RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	olt, err := ca.Issue("olt-01", RoleOLT)
	if err != nil {
		t.Fatal(err)
	}
	ca.Revoke(onu.Certificate.SerialNumber)
	if _, _, err := runHandshake(t, ca, onu, olt); !errors.Is(err, ErrRevoked) {
		t.Fatalf("err = %v, want ErrRevoked", err)
	}
}

func TestHandshakeRejectsWrongRolePeer(t *testing.T) {
	ca := testCA(t)
	// A service certificate must not pass where an OLT is expected.
	svc, err := ca.Issue("svc-1", RoleService)
	if err != nil {
		t.Fatal(err)
	}
	onu, err := ca.Issue("onu-001", RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runHandshake(t, ca, onu, svc); !errors.Is(err, ErrBadRole) {
		t.Fatalf("err = %v, want ErrBadRole", err)
	}
}

func TestHandshakeRejectsTamperedTranscript(t *testing.T) {
	ca := testCA(t)
	onu, err := ca.Issue("onu-001", RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	olt, err := ca.Issue("olt-01", RoleOLT)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := NewHandshaker(onu, ca, RoleOLT, true, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewHandshaker(olt, ca, RoleONU, false, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	offer, err := hc.Offer()
	if err != nil {
		t.Fatal(err)
	}
	// Man-in-the-middle swaps the ephemeral share.
	mitm, err := NewHandshaker(olt, ca, RoleONU, false, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	offer.EphemeralPub = mitm.ephPriv.PublicKey().Bytes()
	if _, err := hs.Accept(offer); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestSessionKeysBeforeCompletion(t *testing.T) {
	ca := testCA(t)
	onu, err := ca.Issue("onu-001", RoleONU)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandshaker(onu, ca, RoleOLT, true, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.SessionKeys(); !errors.Is(err, ErrHandshakeIncomplete) {
		t.Fatalf("err = %v, want ErrHandshakeIncomplete", err)
	}
}
