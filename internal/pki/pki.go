// Package pki implements the certificate infrastructure GENIO uses to
// authenticate nodes (M4): a CA hierarchy issuing device certificates,
// chain verification with expiry and revocation, and a TLS-1.3-style
// mutual-authentication handshake used when ONUs onboard against OLTs.
//
// The paper relies on standard X.509/TLS 1.3 deployments; we implement the
// same trust semantics over compact Ed25519 certificates so the whole flow
// is self-contained and deterministic for experiments. Signatures, key
// agreement (X25519 ECDHE), and session-key derivation (HKDF-SHA256) are
// real stdlib cryptography.
package pki

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Role identifies what kind of entity a certificate is issued to.
type Role int

// Certificate roles in the GENIO deployment.
const (
	RoleCA Role = iota + 1
	RoleOLT
	RoleONU
	RoleCloud
	RoleService
)

var roleNames = map[Role]string{
	RoleCA:      "ca",
	RoleOLT:     "olt",
	RoleONU:     "onu",
	RoleCloud:   "cloud",
	RoleService: "service",
}

// String returns the lowercase role name.
func (r Role) String() string {
	if n, ok := roleNames[r]; ok {
		return n
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// Certificate binds a subject identity and role to an Ed25519 public key,
// signed by an issuer. It plays the part of an X.509 device certificate.
type Certificate struct {
	SerialNumber string            `json:"serialNumber"`
	Subject      string            `json:"subject"`
	Role         Role              `json:"role"`
	PublicKey    ed25519.PublicKey `json:"publicKey"`
	Issuer       string            `json:"issuer"`
	NotBefore    time.Time         `json:"notBefore"`
	NotAfter     time.Time         `json:"notAfter"`
	Signature    []byte            `json:"signature"`
}

// tbs returns the to-be-signed encoding of the certificate.
func (c *Certificate) tbs() []byte {
	cp := *c
	cp.Signature = nil
	b, err := json.Marshal(&cp)
	if err != nil {
		// Marshaling a plain struct of encodable fields cannot fail.
		panic(fmt.Sprintf("pki: marshal tbs: %v", err))
	}
	return b
}

// Identity is a private key together with its certificate.
type Identity struct {
	Certificate *Certificate
	PrivateKey  ed25519.PrivateKey
}

// Errors returned by verification.
var (
	ErrExpired      = errors.New("pki: certificate expired or not yet valid")
	ErrRevoked      = errors.New("pki: certificate revoked")
	ErrBadSignature = errors.New("pki: bad certificate signature")
	ErrUnknownCA    = errors.New("pki: unknown issuer")
	ErrBadRole      = errors.New("pki: unexpected certificate role")
)

// CA is a certificate authority. It issues certificates, maintains a
// revocation list, and verifies presented chains. Safe for concurrent use.
type CA struct {
	mu       sync.Mutex
	identity Identity
	revoked  map[string]time.Time // serial -> revocation time
	issued   int
	now      func() time.Time
	rand     io.Reader
	validity time.Duration
}

// CAOption customizes CA construction.
type CAOption func(*CA)

// WithClock overrides the CA time source (for tests and simulations).
func WithClock(now func() time.Time) CAOption {
	return func(c *CA) { c.now = now }
}

// WithValidity sets the lifetime of issued certificates.
func WithValidity(d time.Duration) CAOption {
	return func(c *CA) { c.validity = d }
}

// WithRand overrides the randomness source.
func WithRand(r io.Reader) CAOption {
	return func(c *CA) { c.rand = r }
}

// NewCA creates a self-signed certificate authority.
func NewCA(name string, opts ...CAOption) (*CA, error) {
	ca := &CA{
		revoked:  make(map[string]time.Time),
		now:      time.Now,
		rand:     rand.Reader,
		validity: 365 * 24 * time.Hour,
	}
	for _, o := range opts {
		o(ca)
	}
	pub, priv, err := ed25519.GenerateKey(ca.rand)
	if err != nil {
		return nil, fmt.Errorf("generate ca key: %w", err)
	}
	cert := &Certificate{
		SerialNumber: newSerial(ca.rand),
		Subject:      name,
		Role:         RoleCA,
		PublicKey:    pub,
		Issuer:       name,
		NotBefore:    ca.now().Add(-time.Minute),
		NotAfter:     ca.now().Add(10 * ca.validity),
	}
	cert.Signature = ed25519.Sign(priv, cert.tbs())
	ca.identity = Identity{Certificate: cert, PrivateKey: priv}
	return ca, nil
}

func newSerial(r io.Reader) string {
	var b [12]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		// Exhausted randomness is unrecoverable at this layer.
		panic(fmt.Sprintf("pki: serial: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Certificate returns the CA's own certificate (the trust anchor).
func (ca *CA) Certificate() *Certificate { return ca.identity.Certificate }

// Issue creates a new identity for subject with the given role.
func (ca *CA) Issue(subject string, role Role) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(ca.rand)
	if err != nil {
		return nil, fmt.Errorf("generate key for %s: %w", subject, err)
	}
	cert, err := ca.IssueForKey(subject, role, pub)
	if err != nil {
		return nil, err
	}
	return &Identity{Certificate: cert, PrivateKey: priv}, nil
}

// IssueForKey certifies an externally held public key (e.g. a key that never
// leaves a device's secure element).
func (ca *CA) IssueForKey(subject string, role Role, pub ed25519.PublicKey) (*Certificate, error) {
	if role == RoleCA {
		return nil, fmt.Errorf("%w: intermediate CAs must use IssueCA", ErrBadRole)
	}
	ca.mu.Lock()
	defer ca.mu.Unlock()
	cert := &Certificate{
		SerialNumber: newSerial(ca.rand),
		Subject:      subject,
		Role:         role,
		PublicKey:    pub,
		Issuer:       ca.identity.Certificate.Subject,
		NotBefore:    ca.now().Add(-time.Minute),
		NotAfter:     ca.now().Add(ca.validity),
	}
	cert.Signature = ed25519.Sign(ca.identity.PrivateKey, cert.tbs())
	ca.issued++
	return cert, nil
}

// Revoke adds a serial number to the CA revocation list.
func (ca *CA) Revoke(serial string) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.revoked[serial] = ca.now()
}

// Issued reports how many certificates this CA has issued.
func (ca *CA) Issued() int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.issued
}

// Verify checks that cert was signed by this CA, is within its validity
// window, is not revoked, and (if wantRole != 0) carries the expected role.
func (ca *CA) Verify(cert *Certificate, wantRole Role) error {
	if cert == nil {
		return fmt.Errorf("%w: nil certificate", ErrBadSignature)
	}
	ca.mu.Lock()
	issuerCert := ca.identity.Certificate
	_, revoked := ca.revoked[cert.SerialNumber]
	now := ca.now()
	ca.mu.Unlock()

	if cert.Issuer != issuerCert.Subject {
		return fmt.Errorf("%w: issuer %q", ErrUnknownCA, cert.Issuer)
	}
	if !ed25519.Verify(issuerCert.PublicKey, cert.tbs(), cert.Signature) {
		return fmt.Errorf("%w: subject %q", ErrBadSignature, cert.Subject)
	}
	if now.Before(cert.NotBefore) || now.After(cert.NotAfter) {
		return fmt.Errorf("%w: subject %q valid %s..%s", ErrExpired,
			cert.Subject, cert.NotBefore.Format(time.RFC3339), cert.NotAfter.Format(time.RFC3339))
	}
	if revoked {
		return fmt.Errorf("%w: serial %s", ErrRevoked, cert.SerialNumber)
	}
	if wantRole != 0 && cert.Role != wantRole {
		return fmt.Errorf("%w: got %s, want %s", ErrBadRole, cert.Role, wantRole)
	}
	return nil
}
