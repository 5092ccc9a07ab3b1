package api

import (
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genio/internal/pki"
)

func testCA(t *testing.T) *pki.CA {
	t.Helper()
	ca, err := pki.NewCA("test-ca")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return ca
}

func TestSignVerifyRoundTrip(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	req := httptest.NewRequest("POST", "http://geniod/v2/deployments", nil)
	if err := SignRequest(req, id); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	subject, err := NewVerifier(ca).Verify(req)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if subject != "operator" {
		t.Fatalf("subject = %q, want operator", subject)
	}
}

func TestVerifyRejectsMissingHeaders(t *testing.T) {
	ca := testCA(t)
	req := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	if _, err := NewVerifier(ca).Verify(req); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated", err)
	}
}

func TestVerifyRejectsForeignCA(t *testing.T) {
	ours, theirs := testCA(t), testCA(t)
	id, err := theirs.Issue("intruder", pki.RoleService)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	req := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	if err := SignRequest(req, id); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	if _, err := NewVerifier(ours).Verify(req); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated", err)
	}
}

func TestVerifyRejectsWrongRole(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("olt-01", pki.RoleOLT)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	req := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	if err := SignRequest(req, id); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	if _, err := NewVerifier(ca).Verify(req); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated", err)
	}
}

func TestVerifyRejectsTamperedRequestLine(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	req := httptest.NewRequest("POST", "http://geniod/v2/deployments", nil)
	if err := SignRequest(req, id); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	// Replay the signed headers against a different endpoint.
	replay := httptest.NewRequest("POST", "http://geniod/v2/nodes/olt-01/drain", nil)
	replay.Header = req.Header.Clone()
	if _, err := NewVerifier(ca).Verify(replay); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated (replay must fail)", err)
	}
}

func TestVerifyRejectsTamperedBody(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	req := httptest.NewRequest("POST", "http://geniod/v2/deployments",
		strings.NewReader(`{"spec":{"name":"web"}}`))
	if err := SignRequest(req, id); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	// Capture the signed headers, replay with an attacker-chosen body.
	replay := httptest.NewRequest("POST", "http://geniod/v2/deployments",
		strings.NewReader(`{"spec":{"name":"cryptominer"}}`))
	replay.Header = req.Header.Clone()
	if _, err := NewVerifier(ca).Verify(replay); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated (body substitution must fail)", err)
	}
	// The untampered request still verifies, and the body survives
	// verification intact for the handler.
	if _, err := NewVerifier(ca).Verify(req); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	body, _ := io.ReadAll(req.Body)
	if string(body) != `{"spec":{"name":"web"}}` {
		t.Fatalf("body consumed by verification: %q", body)
	}
}

func TestVerifyRejectsTamperedQuery(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	req := httptest.NewRequest("GET", "http://geniod/v2/watch?tenant=acme", nil)
	if err := SignRequest(req, id); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	replay := httptest.NewRequest("GET", "http://geniod/v2/watch?tenant=rival", nil)
	replay.Header = req.Header.Clone()
	if _, err := NewVerifier(ca).Verify(replay); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated (query substitution must fail)", err)
	}
}

func TestVerifyRejectsStaleDate(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	req := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	req.Header.Set(HeaderDate, time.Now().Add(-2*MaxClockSkew).UTC().Format(time.RFC3339))
	if err := SignRequest(req, id); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	if _, err := NewVerifier(ca).Verify(req); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated (stale date must fail)", err)
	}
}

func TestVerifierRejectsNonceReplay(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	req := httptest.NewRequest("POST", "http://geniod/v2/deployments", nil)
	if err := SignRequest(req, id); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	v := NewVerifier(ca)
	if _, err := v.Verify(req); err != nil {
		t.Fatalf("first Verify: %v", err)
	}
	// Identical request captured and replayed: the date is still fresh,
	// but the nonce has been seen.
	if _, err := v.Verify(req); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated (verbatim replay must fail)", err)
	}
	// A fresh signature (new nonce) from the same identity still works.
	fresh := httptest.NewRequest("POST", "http://geniod/v2/deployments", nil)
	if err := SignRequest(fresh, id); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	if _, err := v.Verify(fresh); err != nil {
		t.Fatalf("fresh request after replay rejection: %v", err)
	}
}

// TestNonceCacheBoundedUnderFlood: a flood of unique nonces — each one
// validly signed, so it passes every other check — must not grow the
// replay cache past its capacity, and must NOT be able to flush nonces
// the verifier already promised to remember (eviction would let the
// flooder replay any captured request inside the skew window). A full
// cache rejects instead; capacity frees as entries expire.
func TestNonceCacheBoundedUnderFlood(t *testing.T) {
	const capacity = 64
	now := time.Now()
	clock := func() time.Time { return now }
	v := NewVerifier(testCA(t), WithVerifierClock(clock))
	v.maxNonces = capacity
	for i := 0; i < capacity; i++ {
		if err := v.checkNonce(fmt.Sprintf("nonce-%04d", i)); err != nil {
			t.Fatalf("unique nonce %d rejected below cap: %v", i, err)
		}
	}
	// Flooding past the cap is shed, not absorbed.
	for i := capacity; i < 2*capacity; i++ {
		if err := v.checkNonce(fmt.Sprintf("nonce-%04d", i)); !errors.Is(err, ErrReplayCacheFull) {
			t.Fatalf("nonce %d past cap = %v, want ErrReplayCacheFull", i, err)
		}
	}
	v.mu.Lock()
	seen, order := len(v.seen), len(v.order)
	v.mu.Unlock()
	if seen > capacity || order > capacity {
		t.Fatalf("cache grew past cap: seen=%d order=%d, cap=%d", seen, order, capacity)
	}
	// Replay protection survives the flood: every pre-flood nonce —
	// including the oldest — is still rejected as a duplicate, not
	// accepted via a flushed cache.
	if err := v.checkNonce("nonce-0000"); !errors.Is(err, ErrUnauthenticated) || errors.Is(err, ErrReplayCacheFull) {
		t.Fatalf("oldest nonce replay = %v, want duplicate rejection", err)
	}
	// Once the window passes, expired entries free capacity again: the
	// full-cache rejection is flood-scoped, not a permanent outage.
	now = now.Add(2*MaxClockSkew + time.Second)
	if err := v.checkNonce("fresh-after-window"); err != nil {
		t.Fatalf("nonce after expiry window: %v", err)
	}
}

// TestVerifyConcurrentFlood exercises the full Verify path from many
// goroutines at once (run under -race): concurrent signature checks,
// nonce bookkeeping, and full-cache load shedding must be data-race
// free, admit exactly the cache's capacity, and reject the rest with
// ErrReplayCacheFull.
func TestVerifyConcurrentFlood(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	const capacity = 32
	v := NewVerifier(ca)
	v.maxNonces = capacity
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	var admitted, shed atomic.Int64
	errs := make(chan error, workers*perWorker)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
				if err := SignRequest(req, id); err != nil {
					errs <- err
					return
				}
				switch _, err := v.Verify(req); {
				case err == nil:
					admitted.Add(1)
				case errors.Is(err, ErrReplayCacheFull):
					shed.Add(1)
				default:
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Verify: %v", err)
	}
	// No expiry happens inside the test's runtime, so exactly the
	// cache's capacity is admitted; everything else is shed.
	if got := admitted.Load(); got != capacity {
		t.Fatalf("admitted %d requests, want exactly %d", got, capacity)
	}
	if got := shed.Load(); got != workers*perWorker-capacity {
		t.Fatalf("shed %d requests, want %d", got, workers*perWorker-capacity)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.seen) > capacity || len(v.order) > capacity {
		t.Fatalf("cache exceeded cap under concurrency: seen=%d order=%d", len(v.seen), len(v.order))
	}
}

func TestVerifyRejectsRevoked(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	ca.Revoke(id.Certificate.SerialNumber)
	req := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	if err := SignRequest(req, id); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	if _, err := NewVerifier(ca).Verify(req); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated", err)
	}
}

func TestIdentityFileRoundTrip(t *testing.T) {
	ca := testCA(t)
	id, err := ca.Issue("genioctl", pki.RoleService)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	path := filepath.Join(t.TempDir(), "identity.json")
	if err := SaveIdentity(path, id); err != nil {
		t.Fatalf("SaveIdentity: %v", err)
	}
	back, err := LoadIdentity(path)
	if err != nil {
		t.Fatalf("LoadIdentity: %v", err)
	}
	if back.Certificate.Subject != "genioctl" {
		t.Fatalf("subject = %q", back.Certificate.Subject)
	}
	// The loaded identity must still sign verifiable requests.
	req := httptest.NewRequest("GET", "http://geniod/v2/ledger", nil)
	if err := SignRequest(req, back); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	if _, err := NewVerifier(ca).Verify(req); err != nil {
		t.Fatalf("Verify after reload: %v", err)
	}
}

func TestUnmarshalIdentityRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalIdentity([]byte("{}")); err == nil {
		t.Fatal("want error for empty identity")
	}
	if _, err := UnmarshalIdentity([]byte("not json")); err == nil {
		t.Fatal("want error for non-JSON")
	}
}

// --- session (HMAC) path -------------------------------------------------
//
// The session path must preserve every guarantee the Ed25519 path
// gives: the same canonical string is MACed, the same skew window
// applies, and the same nonce cache rejects verbatim replay. These
// tests mirror the per-request-signature battery above on the
// handshake-issued credential.

// sessionFixture mints a verifier and an issued session.
func sessionFixture(t *testing.T, opts ...VerifierOption) (*Verifier, *Session) {
	t.Helper()
	v := NewVerifier(testCA(t), opts...)
	grant, err := v.IssueSession("operator")
	if err != nil {
		t.Fatalf("IssueSession: %v", err)
	}
	return v, grant.Session()
}

func TestSessionSignVerifyRoundTrip(t *testing.T) {
	v, s := sessionFixture(t)
	req := httptest.NewRequest("POST", "http://geniod/v2/deployments",
		strings.NewReader(`{"spec":{"name":"web"}}`))
	if err := SignRequestSession(req, s); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	if req.Header.Get(HeaderCertificate) != "" {
		t.Fatalf("session request must not carry a certificate")
	}
	subject, err := v.Verify(req)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if subject != "operator" {
		t.Fatalf("subject = %q, want operator", subject)
	}
}

func TestSessionRejectsTamperedRequestLine(t *testing.T) {
	v, s := sessionFixture(t)
	req := httptest.NewRequest("POST", "http://geniod/v2/deployments", nil)
	if err := SignRequestSession(req, s); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	replay := httptest.NewRequest("POST", "http://geniod/v2/nodes/olt-01/drain", nil)
	replay.Header = req.Header.Clone()
	if _, err := v.Verify(replay); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated (cross-endpoint replay must fail)", err)
	}
}

func TestSessionRejectsTamperedBody(t *testing.T) {
	v, s := sessionFixture(t)
	req := httptest.NewRequest("POST", "http://geniod/v2/deployments",
		strings.NewReader(`{"spec":{"name":"web"}}`))
	if err := SignRequestSession(req, s); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	tampered := httptest.NewRequest("POST", "http://geniod/v2/deployments",
		strings.NewReader(`{"spec":{"name":"backdoor"}}`))
	tampered.Header = req.Header.Clone()
	if _, err := v.Verify(tampered); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated (body substitution must fail)", err)
	}
}

func TestSessionRejectsTamperedQuery(t *testing.T) {
	v, s := sessionFixture(t)
	req := httptest.NewRequest("GET", "http://geniod/v2/nodes?cluster=edge", nil)
	if err := SignRequestSession(req, s); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	tampered := httptest.NewRequest("GET", "http://geniod/v2/nodes?cluster=core", nil)
	tampered.Header = req.Header.Clone()
	if _, err := v.Verify(tampered); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated (query substitution must fail)", err)
	}
}

func TestSessionRejectsStaleDate(t *testing.T) {
	v, s := sessionFixture(t)
	req := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	req.Header.Set(HeaderDate, time.Now().Add(-2*MaxClockSkew).UTC().Format(time.RFC3339))
	if err := SignRequestSession(req, s); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	if _, err := v.Verify(req); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated (stale date must fail)", err)
	}
}

func TestSessionRejectsNonceReplay(t *testing.T) {
	v, s := sessionFixture(t)
	req := httptest.NewRequest("POST", "http://geniod/v2/deployments", nil)
	if err := SignRequestSession(req, s); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	if _, err := v.Verify(req); err != nil {
		t.Fatalf("first Verify: %v", err)
	}
	if _, err := v.Verify(req); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated (verbatim replay must fail)", err)
	}
	// A fresh MAC (new nonce) on the same session still works.
	fresh := httptest.NewRequest("POST", "http://geniod/v2/deployments", nil)
	if err := SignRequestSession(fresh, s); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	if _, err := v.Verify(fresh); err != nil {
		t.Fatalf("fresh request after replay rejection: %v", err)
	}
}

// TestSessionSharedNonceCacheAcrossPaths: a nonce consumed by an
// Ed25519-signed request is also spent for the session path (and vice
// versa) — the replay cache is one pool, not per-path, so switching
// auth modes cannot resurrect a captured nonce.
func TestSessionSharedNonceCacheAcrossPaths(t *testing.T) {
	ca := testCA(t)
	v := NewVerifier(ca)
	id, err := ca.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	grant, err := v.IssueSession("operator")
	if err != nil {
		t.Fatalf("IssueSession: %v", err)
	}
	signed := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	signed.Header.Set(HeaderNonce, "shared-nonce-1")
	if err := SignRequest(signed, id); err != nil {
		t.Fatalf("SignRequest: %v", err)
	}
	if _, err := v.Verify(signed); err != nil {
		t.Fatalf("ed25519 Verify: %v", err)
	}
	viaSession := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	viaSession.Header.Set(HeaderNonce, "shared-nonce-1")
	if err := SignRequestSession(viaSession, grant.Session()); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	if _, err := v.Verify(viaSession); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated (nonce must be spent across paths)", err)
	}
}

func TestSessionExpiryAndUnknownToken(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	v, s := sessionFixture(t, WithVerifierClock(clock), WithSessionTTL(time.Minute))
	req := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	if err := SignRequestSession(req, s); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	if _, err := v.Verify(req); err != nil {
		t.Fatalf("Verify before expiry: %v", err)
	}
	// Past the TTL the token is gone — distinctly recoverable
	// (ErrSessionExpired), so clients re-handshake instead of failing.
	now = now.Add(2 * time.Minute)
	late := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	late.Header.Set(HeaderDate, now.UTC().Format(time.RFC3339))
	if err := SignRequestSession(late, s); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	if _, err := v.Verify(late); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("err = %v, want ErrSessionExpired", err)
	}
	// A token the verifier never issued reports the same condition.
	unknown := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	if err := SignRequestSession(unknown, (&SessionGrant{Token: "no-such-token", Secret: s.Secret}).Session()); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	if _, err := v.Verify(unknown); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("unknown token err = %v, want ErrSessionExpired", err)
	}
}

func TestSessionRejectsWrongSecret(t *testing.T) {
	v, s := sessionFixture(t)
	forged := (&SessionGrant{Token: s.Token, Secret: []byte("not-the-granted-secret--------!!"), Subject: s.Subject}).Session()
	req := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	if err := SignRequestSession(req, forged); err != nil {
		t.Fatalf("SignRequestSession: %v", err)
	}
	if _, err := v.Verify(req); !errors.Is(err, ErrUnauthenticated) || errors.Is(err, ErrSessionExpired) {
		t.Fatalf("err = %v, want plain ErrUnauthenticated (a bad MAC on a live token is an attack, not expiry)", err)
	}
}

// TestSessionCapacityBounded: a full session table never refuses a
// handshake. Expired sessions leave first; with none expired the
// oldest-issued live one is evicted, and its holder sees the
// recoverable ErrSessionExpired while every younger session still
// verifies.
func TestSessionCapacityBounded(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	v := NewVerifier(testCA(t), WithVerifierClock(clock), WithSessionTTL(time.Minute))
	v.maxSessions = 2
	verify := func(s *Session) error {
		t.Helper()
		req := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
		req.Header.Set(HeaderDate, now.UTC().Format(time.RFC3339))
		if err := SignRequestSession(req, s); err != nil {
			t.Fatalf("SignRequestSession: %v", err)
		}
		_, err := v.Verify(req)
		return err
	}
	var held []*Session
	for i := 0; i < 3; i++ {
		grant, err := v.IssueSession("operator")
		if err != nil {
			t.Fatalf("IssueSession %d at capacity 2: %v", i, err)
		}
		held = append(held, grant.Session())
	}
	if err := verify(held[0]); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("oldest session after eviction: err = %v, want ErrSessionExpired", err)
	}
	for i, s := range held[1:] {
		if err := verify(s); err != nil {
			t.Fatalf("younger session %d evicted: %v", i+1, err)
		}
	}
	if len(v.sessions) != 2 || len(v.sessOrder) != 2 {
		t.Fatalf("table = %d sessions / %d ordered, want 2 / 2", len(v.sessions), len(v.sessOrder))
	}
	// Expiry empties the table on the next issue, whatever the cap.
	now = now.Add(2 * time.Minute)
	fresh, err := v.IssueSession("operator")
	if err != nil {
		t.Fatalf("IssueSession after expiry: %v", err)
	}
	if err := verify(fresh.Session()); err != nil {
		t.Fatalf("fresh session: %v", err)
	}
	if len(v.sessions) != 1 || len(v.sessOrder) != 1 {
		t.Fatalf("table = %d sessions / %d ordered after expiry, want 1 / 1", len(v.sessions), len(v.sessOrder))
	}
}

// TestHandBuiltSessionCannotSign: only SessionGrant.Session yields a
// usable credential; a struct literal is refused, not MACed with a
// fresh key state.
func TestHandBuiltSessionCannotSign(t *testing.T) {
	req := httptest.NewRequest("GET", "http://geniod/v2/nodes", nil)
	err := SignRequestSession(req, &Session{Token: "t", Secret: []byte("0123456789abcdef0123456789abcdef")})
	if !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated", err)
	}
	if req.Header.Get(HeaderSession) != "" || req.Header.Get(HeaderSignature) != "" {
		t.Fatalf("refused sign left credentials on the request: %v", req.Header)
	}
}
