package api

// Request authentication: handshake, then session. The platform's PKI
// issues Ed25519 identity certificates (internal/pki) rather than x509,
// so the wire cannot use stock crypto/tls mutual TLS; the handshake
// plays that role in headers instead. A client proves its identity
// once — POST /v2/session carrying its certificate and an Ed25519
// signature over the request (SignRequest), checked against the cluster
// CA — and receives a short-lived session: a token id plus an
// HMAC-SHA256 secret bound to the certificate's subject. Every other
// request is MACed with that secret (SignRequestSession) and names the
// token; the server looks the subject up for RBAC. When the session
// ends (TTL, eviction, daemon restart) the server answers the
// recoverable session-expired 401 and the client handshakes again.
//
// This package holds the two primitives and a Verifier that checks
// either; which one a route accepts is decided in exactly one place,
// api/server's Server.authenticate: a certificate signature on POST
// /v2/session only, a session MAC everywhere else.
//
// Both primitives cover the same canonical string — method, path,
// canonical query string, date, nonce, and a SHA-256 hash of the body —
// so a captured request cannot be replayed against another endpoint,
// with altered parameters, or with a substituted body. Replay of the
// request verbatim is stopped in depth: the date must fall inside a
// small clock-skew window, and the Verifier remembers nonces seen
// inside that window and rejects duplicates, one cache for both
// primitives.

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"genio/internal/pki"
)

// Auth headers.
const (
	// HeaderCertificate carries the client's base64-encoded JSON
	// identity certificate.
	HeaderCertificate = "X-Genio-Certificate"
	// HeaderSignature carries the base64-encoded Ed25519 signature over
	// the request (see signingPayload).
	HeaderSignature = "X-Genio-Signature"
	// HeaderDate is the client's request timestamp (RFC3339); it is
	// bound into the signature and must fall within MaxClockSkew of the
	// server's clock.
	HeaderDate = "X-Genio-Date"
	// HeaderNonce is a per-request random value bound into the
	// signature; a stateful Verifier rejects a nonce it has already
	// seen inside the clock-skew window.
	HeaderNonce = "X-Genio-Nonce"
	// HeaderSubject names the caller in anonymous (legacy-posture)
	// mode. Honoured only by a server that allows anonymous callers, and
	// only on a request that presents no credential at all: a session
	// token, certificate or signature is always verified, never demoted.
	HeaderSubject = "X-Genio-Subject"
	// HeaderSession carries a session token id issued by POST
	// /v2/session. When present, HeaderSignature holds an HMAC-SHA256
	// over the same canonical string instead of an Ed25519 signature —
	// the symmetric steady-state of the handshake-bootstrapped session
	// (see Verifier.IssueSession).
	HeaderSession = "X-Genio-Session"
)

// MaxClockSkew is how far a request's date may drift from the
// verifier's clock before the request is rejected as stale; it also
// bounds how long a nonce is remembered.
const MaxClockSkew = 2 * time.Minute

// maxSignedBody bounds how much body a verifier will read to check the
// body hash. Control-plane payloads are small JSON documents; anything
// larger is rejected rather than hashed unbounded.
const maxSignedBody = 4 << 20

// DefaultNonceCapacity bounds the replay cache by entry count. Time
// alone is not enough: every remembered nonce lives a full 2×skew, so
// an attacker flooding unique nonces (each request signed by any valid
// identity — including its own) could grow the cache without limit
// inside one window. At the cap, further requests are REJECTED rather
// than old nonces evicted: evicting would let a flood flush the cache
// and then replay any captured request still inside the skew window,
// turning the memory bound into a replay-protection bypass. Rejecting
// degrades a flood into self-inflicted unavailability for the
// flooding window instead, and every remembered nonce keeps its full
// 2×skew lifetime.
const DefaultNonceCapacity = 65536

// ErrUnauthenticated reports a request whose identity could not be
// established (missing or invalid certificate/signature, stale date,
// replayed nonce).
var ErrUnauthenticated = errors.New("api: request not authenticated")

// ErrReplayCacheFull reports a request refused because the verifier's
// nonce cache is at capacity — under a unique-nonce flood the verifier
// sheds load rather than forgetting nonces it promised to remember.
// Unwraps to ErrUnauthenticated; capacity frees as entries expire.
var ErrReplayCacheFull = fmt.Errorf("%w: nonce replay cache full, retry later", ErrUnauthenticated)

// ErrSessionExpired reports a request carrying a session token the
// verifier does not hold (expired, evicted, or never issued). Clients
// recover by re-running the Ed25519 handshake (POST /v2/session) and
// retrying; the condition is advisory, not an attack signal. Unwraps to
// ErrUnauthenticated.
var ErrSessionExpired = fmt.Errorf("%w: session expired or unknown", ErrUnauthenticated)

// DefaultSessionTTL is how long an issued session stays valid. Short
// enough that a leaked secret has a bounded window, long enough that a
// deploy storm re-keys rarely (re-key is one Ed25519 round trip).
const DefaultSessionTTL = 10 * time.Minute

// DefaultSessionCapacity bounds live sessions. Unlike the nonce cache,
// hitting the cap is not a security decision: a handshake is never
// refused for it. The oldest-issued session is evicted instead, and its
// holder — if still around — gets the recoverable session-expired 401
// and re-keys, so the cap only bounds memory.
const DefaultSessionCapacity = 4096

// sessionSecretSize is the HMAC-SHA256 key length for session secrets.
const sessionSecretSize = 32

// signingPayload is the byte string the client signs: method, path,
// canonical (encoded) query string, date, nonce, and the hex SHA-256
// of the body, newline-joined. Binding all request-controlled inputs
// means a captured signature authorizes exactly one request shape.
func signingPayload(method, path, query, date, nonce, bodyHash string) []byte {
	n := len(method) + len(path) + len(query) + len(date) + len(nonce) + len(bodyHash) + 5
	return appendSigningPayload(make([]byte, 0, n), method, path, query, date, nonce, bodyHash)
}

// appendSigningPayload appends the canonical signing string to dst —
// the allocation-free form signingPayload and the pooled MAC path
// share, so both produce byte-identical payloads.
func appendSigningPayload(dst []byte, method, path, query, date, nonce, bodyHash string) []byte {
	dst = append(dst, method...)
	dst = append(dst, '\n')
	dst = append(dst, path...)
	dst = append(dst, '\n')
	dst = append(dst, query...)
	dst = append(dst, '\n')
	dst = append(dst, date...)
	dst = append(dst, '\n')
	dst = append(dst, nonce...)
	dst = append(dst, '\n')
	dst = append(dst, bodyHash...)
	return dst
}

// payloadPool recycles signing-payload scratch buffers: every signed
// request (both ends) builds one canonical string, so a deploy storm
// would otherwise allocate it thousands of times per second.
var payloadPool = sync.Pool{New: func() any { b := make([]byte, 0, 192); return &b }}

// macPool recycles keyed HMAC-SHA256 states for one secret. hmac.New
// costs several allocations (two hash states plus key pads) and every
// steady-state request MACs once per end, so sessions keep reset-able
// keyed states for their lifetime instead of rebuilding them.
type macPool struct{ pool sync.Pool }

func newMACPool(secret []byte) *macPool {
	p := &macPool{}
	p.pool.New = func() any { return hmac.New(sha256.New, secret) }
	return p
}

// mac computes the session MAC over the canonical signing string using
// pooled HMAC state and a pooled payload buffer.
func (p *macPool) mac(method, path, query, date, nonce, bodyHash string) []byte {
	bp := payloadPool.Get().(*[]byte)
	payload := appendSigningPayload((*bp)[:0], method, path, query, date, nonce, bodyHash)
	m := p.pool.Get().(hash.Hash)
	m.Reset()
	m.Write(payload)
	sum := m.Sum(nil)
	p.pool.Put(m)
	*bp = payload[:0]
	payloadPool.Put(bp)
	return sum
}

// canonicalQuery is the query-string form bound into signatures. The
// empty-query fast path matters: url.Query() materializes a Values map
// even for a bare path, and most control calls have no query at all.
func canonicalQuery(u *url.URL) string {
	if u.RawQuery == "" {
		return ""
	}
	return u.Query().Encode()
}

// datestamp caches the RFC3339 form of the current second. Signing
// dates only need second precision, so a deploy storm formats once per
// second instead of once per request.
type datestamp struct {
	sec int64
	str string
}

var lastDate atomic.Pointer[datestamp]

func requestDate() string {
	now := time.Now()
	sec := now.Unix()
	if d := lastDate.Load(); d != nil && d.sec == sec {
		return d.str
	}
	d := &datestamp{sec: sec, str: now.UTC().Format(time.RFC3339)}
	lastDate.Store(d)
	return d.str
}

// newNonce mints the per-request random hex nonce.
func newNonce() (string, error) {
	var raw [12]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("api: nonce: %w", err)
	}
	var dst [24]byte
	hex.Encode(dst[:], raw[:])
	return string(dst[:]), nil
}

// hexSum renders a SHA-256 digest as lowercase hex in one allocation.
func hexSum(sum []byte) string {
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:2*len(sum)], sum)
	return string(dst[:2*len(sum)])
}

// b64MAC renders a 32-byte MAC as standard base64 in one allocation.
func b64MAC(sum []byte) string {
	var dst [44]byte
	base64.StdEncoding.Encode(dst[:], sum)
	return string(dst[:base64.StdEncoding.EncodedLen(len(sum))])
}

// bodyHashPool recycles the SHA-256 states and copy buffers hashBody
// streams re-readable bodies through.
var (
	bodyHashPool = sync.Pool{New: func() any { return sha256.New() }}
	bodyBufPool  = sync.Pool{New: func() any { b := make([]byte, 16*1024); return &b }}
)

// errBodyTooLarge refuses a body over maxSignedBody.
var errBodyTooLarge = fmt.Errorf("api: body exceeds %d-byte limit", maxSignedBody)

// ReadBody appends the request's body to dst: the one read a server
// makes of a body, whatever credential the request carries. A body
// over maxSignedBody bytes is refused, unread beyond the limit.
func ReadBody(dst []byte, r *http.Request) ([]byte, error) {
	if r.Body == nil || r.Body == http.NoBody {
		return dst, nil
	}
	if r.ContentLength > maxSignedBody {
		return dst, errBodyTooLarge
	}
	if r.ContentLength > 0 {
		// One spare byte, so the read that reports EOF needs no growth.
		dst = slices.Grow(dst, int(r.ContentLength)+1)
	}
	limit := len(dst) + maxSignedBody + 1
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		n, err := r.Body.Read(dst[len(dst):min(cap(dst), limit)])
		dst = dst[:len(dst)+n]
		if len(dst) == limit {
			return dst, errBodyTooLarge
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, fmt.Errorf("api: read body: %w", err)
		}
	}
}

// hashBody returns the hex SHA-256 of an outgoing request's body
// without consuming it. A re-readable body (GetBody, as
// http.NewRequest sets for in-memory readers) is streamed through a
// pooled hash state with a pooled copy buffer; a one-shot body is read
// once and put back. An absent body hashes as the empty string. A
// server never calls this: it hashes the body it read (VerifyBody).
func hashBody(req *http.Request) (string, error) {
	if req.Body == nil || req.Body == http.NoBody {
		return sumBody(nil), nil
	}
	if req.GetBody != nil {
		fresh, err := req.GetBody()
		if err != nil {
			return "", fmt.Errorf("api: reread body: %w", err)
		}
		defer fresh.Close()
		h := bodyHashPool.Get().(hash.Hash)
		h.Reset()
		bp := bodyBufPool.Get().(*[]byte)
		defer bodyBufPool.Put(bp)
		defer bodyHashPool.Put(h)
		buf := *bp
		var total int64
		for {
			n, rerr := fresh.Read(buf)
			if n > 0 {
				if total += int64(n); total > maxSignedBody {
					return "", errBodyTooLarge
				}
				h.Write(buf[:n])
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return "", fmt.Errorf("api: read body: %w", rerr)
			}
		}
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		return hexSum(sum[:]), nil
	}
	data, err := ReadBody(nil, req)
	putBack(req, data)
	if err != nil {
		return "", err
	}
	return sumBody(data), nil
}

// putBack hands a request whose one-shot body was read a reader over
// the bytes read, so its caller still has the body after signing or
// verifying it.
func putBack(req *http.Request, data []byte) {
	if len(data) > 0 {
		req.Body = io.NopCloser(bytes.NewReader(data))
	}
}

// sumBody is the hex SHA-256 of body bytes already in hand.
func sumBody(body []byte) string {
	sum := sha256.Sum256(body)
	return hexSum(sum[:])
}

// SignRequest authenticates an outgoing request with the identity: it
// attaches the certificate and signs the method, path, query, date,
// nonce, and body hash. Date (fresh per request) and nonce are
// generated unless already set.
func SignRequest(req *http.Request, id *pki.Identity) error {
	if id == nil || id.Certificate == nil {
		return fmt.Errorf("%w: no identity", ErrUnauthenticated)
	}
	certJSON, err := json.Marshal(id.Certificate)
	if err != nil {
		return fmt.Errorf("api: marshal certificate: %w", err)
	}
	date := req.Header.Get(HeaderDate)
	if date == "" {
		date = requestDate()
		req.Header.Set(HeaderDate, date)
	}
	nonce := req.Header.Get(HeaderNonce)
	if nonce == "" {
		nonce, err = newNonce()
		if err != nil {
			return err
		}
		req.Header.Set(HeaderNonce, nonce)
	}
	bodyHash, err := hashBody(req)
	if err != nil {
		return err
	}
	sig := ed25519.Sign(id.PrivateKey,
		signingPayload(req.Method, req.URL.Path, canonicalQuery(req.URL), date, nonce, bodyHash))
	req.Header.Set(HeaderCertificate, base64.StdEncoding.EncodeToString(certJSON))
	req.Header.Set(HeaderSignature, base64.StdEncoding.EncodeToString(sig))
	return nil
}

// Session is a client-side session credential: the token id the server
// knows the secret by, the shared HMAC secret itself, and when the
// server will forget both. Obtained from a SessionGrant (the wire form
// POST /v2/session returns) via its Session method.
type Session struct {
	Token     string
	Secret    []byte
	Subject   string
	ExpiresAt time.Time

	// macs holds reset-able keyed HMAC states for Secret. Only
	// SessionGrant.Session sets it; a hand-built Session cannot sign.
	macs *macPool
}

// SessionGrant is the wire body of a successful POST /v2/session: an
// Ed25519-signed handshake traded for a short-lived symmetric
// credential. Secret is base64 in JSON (Go []byte encoding).
type SessionGrant struct {
	Token     string    `json:"token"`
	Secret    []byte    `json:"secret"`
	Subject   string    `json:"subject"`
	ExpiresAt time.Time `json:"expiresAt"`
}

// Session converts the grant into the client-side credential.
func (g *SessionGrant) Session() *Session {
	return &Session{Token: g.Token, Secret: g.Secret, Subject: g.Subject,
		ExpiresAt: g.ExpiresAt, macs: newMACPool(g.Secret)}
}

// SignRequestSession authenticates an outgoing request with a session:
// same canonical string as SignRequest (method, path, query, date,
// nonce, body hash), but MACed with the session secret instead of
// signed with the identity key — sub-µs symmetric crypto on the
// steady-state path, and no certificate attached.
func SignRequestSession(req *http.Request, s *Session) error {
	if s == nil || s.macs == nil {
		return fmt.Errorf("%w: no session (build one with SessionGrant.Session)", ErrUnauthenticated)
	}
	date := req.Header.Get(HeaderDate)
	if date == "" {
		date = requestDate()
		req.Header.Set(HeaderDate, date)
	}
	nonce := req.Header.Get(HeaderNonce)
	if nonce == "" {
		var err error
		if nonce, err = newNonce(); err != nil {
			return err
		}
		req.Header.Set(HeaderNonce, nonce)
	}
	bodyHash, err := hashBody(req)
	if err != nil {
		return err
	}
	sum := s.macs.mac(req.Method, req.URL.Path, canonicalQuery(req.URL), date, nonce, bodyHash)
	req.Header.Set(HeaderSession, s.Token)
	req.Header.Set(HeaderSignature, b64MAC(sum))
	return nil
}

// Verifier checks incoming requests: a session MAC against the session
// table it holds (IssueSession), a certificate signature against the
// CA. It is stateful: nonces seen inside the clock-skew window are
// remembered (and bounded by that window), so a verbatim replay of a
// captured request is rejected even while its date is still fresh. Both
// primitives share the same canonical string, date window, and nonce
// cache, so every replay/skew guarantee holds identically for either.
// Which primitive a route accepts is the server's decision, not the
// Verifier's. Safe for concurrent use.
type Verifier struct {
	ca   *pki.CA
	skew time.Duration
	now  func() time.Time

	mu        sync.Mutex
	seen      map[string]struct{} // nonces inside the window
	order     []nonceEntry        // expiry order == insertion order (clock is monotonic)
	maxNonces int                 // hard cap on remembered nonces (full cache rejects)

	sessMu      sync.RWMutex
	sessions    map[string]*sessionRecord // token id → issued session
	sessOrder   []string                  // token ids, issue order == expiry order (one TTL)
	sessTTL     time.Duration
	maxSessions int // at the cap the oldest-issued session is evicted
}

// sessionRecord is the server half of an issued session.
type sessionRecord struct {
	subject string
	exp     time.Time
	macs    *macPool // reset-able HMAC states keyed by the session secret
}

// nonceEntry pairs a remembered nonce with when it may be forgotten.
type nonceEntry struct {
	nonce string
	exp   time.Time
}

// VerifierOption customizes a Verifier. The clock-skew window and the
// nonce and session caps are fixed at their defaults; in-package tests
// set the fields.
type VerifierOption func(*Verifier)

// WithVerifierClock overrides the verifier's time source (tests).
func WithVerifierClock(now func() time.Time) VerifierOption {
	return func(v *Verifier) { v.now = now }
}

// WithSessionTTL overrides how long issued sessions live (default
// DefaultSessionTTL). Tests use tiny TTLs to exercise re-keying.
func WithSessionTTL(d time.Duration) VerifierOption {
	return func(v *Verifier) { v.sessTTL = d }
}

// NewVerifier builds a request verifier over the CA.
func NewVerifier(ca *pki.CA, opts ...VerifierOption) *Verifier {
	v := &Verifier{ca: ca, skew: MaxClockSkew, now: time.Now,
		seen: make(map[string]struct{}), maxNonces: DefaultNonceCapacity,
		sessions: make(map[string]*sessionRecord),
		sessTTL:  DefaultSessionTTL, maxSessions: DefaultSessionCapacity}
	for _, o := range opts {
		o(v)
	}
	return v
}

// IssueSession mints a session for an already-authenticated subject
// (the caller must have verified an Ed25519-signed handshake first).
// It never refuses for lack of room: sessions leave the table in issue
// order, the expired ones on every issue and, at capacity, the
// oldest-issued live one — whose holder gets ErrSessionExpired on its
// next request and handshakes again.
func (v *Verifier) IssueSession(subject string) (*SessionGrant, error) {
	var raw [16 + sessionSecretSize]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, fmt.Errorf("api: session secret: %w", err)
	}
	token := hex.EncodeToString(raw[:16])
	secret := append([]byte(nil), raw[16:]...)
	now := v.now()
	exp := now.Add(v.sessTTL)
	v.sessMu.Lock()
	defer v.sessMu.Unlock()
	for len(v.sessOrder) > 0 &&
		(len(v.sessOrder) >= v.maxSessions || now.After(v.sessions[v.sessOrder[0]].exp)) {
		delete(v.sessions, v.sessOrder[0])
		v.sessOrder = v.sessOrder[1:]
	}
	v.sessOrder = append(v.sessOrder, token)
	v.sessions[token] = &sessionRecord{subject: subject, exp: exp, macs: newMACPool(secret)}
	return &SessionGrant{Token: token, Secret: secret, Subject: subject, ExpiresAt: exp}, nil
}

// Verify checks an incoming request and returns the authenticated
// subject. Requests carrying a session token take the HMAC path; all
// others must present a certificate chaining to the CA (within its
// validity window, not revoked, service role) whose key signed the
// request — the handshake's proof. Either way the signature covers the
// request (method, path, query, date, nonce, body hash), the date must
// be within the clock-skew window, and the nonce must not have been
// seen before — the replay defenses are shared, not per-path. The body
// is read (VerifyBody) and put back, so the caller can still read it.
func (v *Verifier) Verify(r *http.Request) (string, error) {
	subject, body, err := v.VerifyBody(r, nil)
	putBack(r, body)
	return subject, err
}

// VerifyBody is Verify for a server that keeps the body it verifies.
// Once the header checks that can refuse without the body have passed,
// it appends the body to buf (ReadBody) and hashes those bytes in
// place. body is buf extended by what was read, on failure too, so the
// handler decodes the body where it lies and a pooled buf can go back
// to its pool.
func (v *Verifier) VerifyBody(r *http.Request, buf []byte) (subject string, body []byte, err error) {
	var nonce string
	if r.Header.Get(HeaderSession) != "" {
		subject, nonce, body, err = v.verifySessionMAC(r, buf)
	} else {
		subject, nonce, body, err = v.verifySignature(r, buf)
	}
	if err == nil {
		err = v.checkNonce(nonce)
	}
	if err != nil {
		return "", body, err
	}
	return subject, body, nil
}

// readSigned reads the body a signature covers (ReadBody) and returns
// it with its hash; a body the verifier cannot read is unauthenticated.
func readSigned(r *http.Request, buf []byte) (body []byte, digest string, err error) {
	body, err = ReadBody(buf, r)
	if err != nil {
		return body, "", fmt.Errorf("%w: %v", ErrUnauthenticated, err)
	}
	return body, sumBody(body), nil
}

// verifySessionMAC checks the symmetric steady-state path: the session
// must be live, and the signature header must be an HMAC-SHA256 over
// the same canonical string verifySignature covers, keyed by the
// session secret. Date and nonce checks are byte-for-byte the same
// code as the Ed25519 path.
func (v *Verifier) verifySessionMAC(r *http.Request, buf []byte) (subject, nonce string, body []byte, err error) {
	token := r.Header.Get(HeaderSession)
	macB64 := r.Header.Get(HeaderSignature)
	if macB64 == "" {
		return "", "", buf, fmt.Errorf("%w: missing signature", ErrUnauthenticated)
	}
	v.sessMu.RLock()
	rec, ok := v.sessions[token]
	v.sessMu.RUnlock()
	if !ok || v.now().After(rec.exp) {
		return "", "", buf, ErrSessionExpired // the record itself leaves on a later issue
	}
	date := r.Header.Get(HeaderDate)
	if err := v.checkDate(date); err != nil {
		return "", "", buf, err
	}
	nonce = r.Header.Get(HeaderNonce)
	if nonce == "" {
		return "", "", buf, fmt.Errorf("%w: missing nonce", ErrUnauthenticated)
	}
	got, err := base64.StdEncoding.DecodeString(macB64)
	if err != nil {
		return "", "", buf, fmt.Errorf("%w: bad signature encoding", ErrUnauthenticated)
	}
	body, digest, err := readSigned(r, buf)
	if err != nil {
		return "", "", body, err
	}
	want := rec.macs.mac(r.Method, r.URL.Path, canonicalQuery(r.URL), date, nonce, digest)
	if !hmac.Equal(got, want) {
		return "", "", body, fmt.Errorf("%w: signature mismatch", ErrUnauthenticated)
	}
	return rec.subject, nonce, body, nil
}

// checkDate parses the date header and enforces the skew window —
// shared verbatim by the Ed25519 and session paths.
func (v *Verifier) checkDate(date string) error {
	when, err := time.Parse(time.RFC3339, date)
	if err != nil {
		return fmt.Errorf("%w: bad date", ErrUnauthenticated)
	}
	if drift := v.now().Sub(when); drift > v.skew || drift < -v.skew {
		return fmt.Errorf("%w: request date outside ±%s window", ErrUnauthenticated, v.skew)
	}
	return nil
}

func (v *Verifier) verifySignature(r *http.Request, buf []byte) (subject, nonce string, body []byte, err error) {
	certB64 := r.Header.Get(HeaderCertificate)
	sigB64 := r.Header.Get(HeaderSignature)
	if certB64 == "" || sigB64 == "" {
		return "", "", buf, fmt.Errorf("%w: missing certificate or signature", ErrUnauthenticated)
	}
	certJSON, err := base64.StdEncoding.DecodeString(certB64)
	if err != nil {
		return "", "", buf, fmt.Errorf("%w: bad certificate encoding", ErrUnauthenticated)
	}
	var cert pki.Certificate
	if err := json.Unmarshal(certJSON, &cert); err != nil {
		return "", "", buf, fmt.Errorf("%w: bad certificate", ErrUnauthenticated)
	}
	if err := v.ca.Verify(&cert, pki.RoleService); err != nil {
		return "", "", buf, fmt.Errorf("%w: %v", ErrUnauthenticated, err)
	}
	date := r.Header.Get(HeaderDate)
	if err := v.checkDate(date); err != nil {
		return "", "", buf, err
	}
	nonce = r.Header.Get(HeaderNonce)
	if nonce == "" {
		return "", "", buf, fmt.Errorf("%w: missing nonce", ErrUnauthenticated)
	}
	sig, err := base64.StdEncoding.DecodeString(sigB64)
	if err != nil {
		return "", "", buf, fmt.Errorf("%w: bad signature encoding", ErrUnauthenticated)
	}
	body, digest, err := readSigned(r, buf)
	if err != nil {
		return "", "", body, err
	}
	payload := signingPayload(r.Method, r.URL.Path, canonicalQuery(r.URL), date, nonce, digest)
	if !ed25519.Verify(ed25519.PublicKey(cert.PublicKey), payload, sig) {
		return "", "", body, fmt.Errorf("%w: signature mismatch", ErrUnauthenticated)
	}
	return cert.Subject, nonce, body, nil
}

// checkNonce records the nonce and rejects one already seen. Entries
// expire in insertion order (every entry lives exactly 2×skew), so
// expired ones pop off the front of the FIFO in amortized O(1) and the
// cache stays proportional to the request rate inside one window — and
// is additionally hard-capped at maxNonces entries. A full cache
// REJECTS the request (ErrReplayCacheFull) rather than evicting a
// live entry: a remembered nonce must stay remembered for its whole
// window, or a unique-nonce flood could flush the cache and replay
// captured requests at will.
func (v *Verifier) checkNonce(nonce string) error {
	now := v.now()
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(v.order) > 0 && now.After(v.order[0].exp) {
		delete(v.seen, v.order[0].nonce)
		v.order = v.order[1:]
	}
	if _, dup := v.seen[nonce]; dup {
		return fmt.Errorf("%w: replayed nonce", ErrUnauthenticated)
	}
	if len(v.order) >= v.maxNonces {
		return ErrReplayCacheFull
	}
	v.seen[nonce] = struct{}{}
	v.order = append(v.order, nonceEntry{nonce: nonce, exp: now.Add(2 * v.skew)})
	return nil
}

// identityFile is the on-disk JSON form of an identity.
type identityFile struct {
	Certificate *pki.Certificate `json:"certificate"`
	PrivateKey  []byte           `json:"privateKey"`
}

// MarshalIdentity serializes an identity (certificate + private key)
// for transport to a client, e.g. via `geniod -identity-out`.
func MarshalIdentity(id *pki.Identity) ([]byte, error) {
	if id == nil || id.Certificate == nil {
		return nil, errors.New("api: nil identity")
	}
	return json.MarshalIndent(identityFile{
		Certificate: id.Certificate,
		PrivateKey:  id.PrivateKey,
	}, "", "  ")
}

// UnmarshalIdentity parses a serialized identity.
func UnmarshalIdentity(data []byte) (*pki.Identity, error) {
	var f identityFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("api: parse identity: %w", err)
	}
	if f.Certificate == nil || len(f.PrivateKey) != ed25519.PrivateKeySize {
		return nil, errors.New("api: identity missing certificate or key")
	}
	return &pki.Identity{Certificate: f.Certificate, PrivateKey: f.PrivateKey}, nil
}

// SaveIdentity writes an identity file readable only by its owner.
func SaveIdentity(path string, id *pki.Identity) error {
	data, err := MarshalIdentity(id)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o600)
}

// LoadIdentity reads an identity file written by SaveIdentity.
func LoadIdentity(path string) (*pki.Identity, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalIdentity(data)
}
