// Package updates implements GENIO's supply-chain protections for software
// distribution (M9): an APT-style package repository whose metadata and
// packages are signature-verified before installation, and ONIE-style
// operating-system image updates validated through a detached signature
// against a locally trusted public key backed by the TPM, applied from a
// minimal Secure-Boot-verified environment per NIST SP 800-193.
package updates

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"genio/internal/host"
	"genio/internal/tpm"
	"genio/internal/vuln"
)

// Errors returned by update verification.
var (
	ErrBadSignature  = errors.New("updates: signature verification failed")
	ErrBadDigest     = errors.New("updates: artifact digest mismatch")
	ErrNoTrustAnchor = errors.New("updates: no trust anchor provisioned")
	ErrNotFound      = errors.New("updates: artifact not found")
	ErrInsecureApply = errors.New("updates: image apply requires verified minimal environment")
)

// PackageArtifact is one distributable package.
type PackageArtifact struct {
	Name      string `json:"name"`
	Version   string `json:"version"`
	Data      []byte `json:"data"`
	Digest    string `json:"digest"`
	Signature []byte `json:"signature"`
}

// RepoMetadata is the signed index of a repository (APT Release file).
type RepoMetadata struct {
	Name      string            `json:"name"`
	Digests   map[string]string `json:"digests"` // name/version -> sha256
	Signature []byte            `json:"signature"`
}

// Repository is a signed package repository. Safe for concurrent use.
type Repository struct {
	Name string

	mu       sync.Mutex
	priv     ed25519.PrivateKey
	pub      ed25519.PublicKey
	packages map[string]PackageArtifact // name/version key
}

// NewRepository creates a repository with a fresh signing key (the
// repository GPG key in APT terms).
func NewRepository(name string) (*Repository, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("repo key: %w", err)
	}
	return &Repository{Name: name, priv: priv, pub: pub,
		packages: make(map[string]PackageArtifact)}, nil
}

// PublicKey returns the repository verification key.
func (r *Repository) PublicKey() ed25519.PublicKey {
	out := make(ed25519.PublicKey, len(r.pub))
	copy(out, r.pub)
	return out
}

func pkgKey(name, version string) string { return name + "/" + version }

func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Publish signs and stores a package.
func (r *Repository) Publish(name, version string, data []byte) PackageArtifact {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := PackageArtifact{
		Name:    name,
		Version: version,
		Data:    append([]byte(nil), data...),
		Digest:  digestOf(data),
	}
	a.Signature = ed25519.Sign(r.priv, packageMessage(a))
	r.packages[pkgKey(name, version)] = a
	return a
}

// Metadata produces the signed repository index.
func (r *Repository) Metadata() RepoMetadata {
	r.mu.Lock()
	defer r.mu.Unlock()
	md := RepoMetadata{Name: r.Name, Digests: make(map[string]string, len(r.packages))}
	for k, a := range r.packages {
		md.Digests[k] = a.Digest
	}
	md.Signature = ed25519.Sign(r.priv, metadataMessage(md))
	return md
}

func packageMessage(a PackageArtifact) []byte {
	h := sha256.New()
	h.Write([]byte("genio-apt-package-v1"))
	h.Write([]byte(a.Name))
	h.Write([]byte{0})
	h.Write([]byte(a.Version))
	h.Write([]byte{0})
	h.Write([]byte(a.Digest))
	return h.Sum(nil)
}

func metadataMessage(md RepoMetadata) []byte {
	keys := make([]string, 0, len(md.Digests))
	for k := range md.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	h.Write([]byte("genio-apt-metadata-v1"))
	h.Write([]byte(md.Name))
	for _, k := range keys {
		h.Write([]byte{0})
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(md.Digests[k]))
	}
	return h.Sum(nil)
}

// Client verifies and installs packages onto a host, in the role of APT
// with the repository key pinned.
type Client struct {
	repoPub ed25519.PublicKey
	host    *host.Host
	// Installed counts successful installs, Rejected failed verifications.
	Installed int
	Rejected  int
}

// NewClient pins the repository key for a host.
func NewClient(repoPub ed25519.PublicKey, h *host.Host) *Client {
	return &Client{repoPub: repoPub, host: h}
}

// VerifyMetadata checks the repository index signature.
func (c *Client) VerifyMetadata(md RepoMetadata) error {
	if !ed25519.Verify(c.repoPub, metadataMessage(md), md.Signature) {
		return fmt.Errorf("%w: repository metadata", ErrBadSignature)
	}
	return nil
}

// Install verifies a package against the signed metadata and the package
// signature, then installs it on the host. Any verification failure rejects
// the artifact (APT's behaviour for unverified packages).
func (c *Client) Install(md RepoMetadata, a PackageArtifact) error {
	if err := c.VerifyMetadata(md); err != nil {
		c.Rejected++
		return err
	}
	want, ok := md.Digests[pkgKey(a.Name, a.Version)]
	if !ok {
		c.Rejected++
		return fmt.Errorf("%w: %s %s not in metadata", ErrNotFound, a.Name, a.Version)
	}
	if digestOf(a.Data) != want || a.Digest != want {
		c.Rejected++
		return fmt.Errorf("%w: %s %s", ErrBadDigest, a.Name, a.Version)
	}
	if !ed25519.Verify(c.repoPub, packageMessage(a), a.Signature) {
		c.Rejected++
		return fmt.Errorf("%w: package %s", ErrBadSignature, a.Name)
	}
	c.host.InstallPackage(host.Package{Name: a.Name, Version: a.Version, Path: "/usr"})
	c.Installed++
	return nil
}

// --- ONIE image updates -----------------------------------------------------

// OSImage is a full ONL operating-system image delivered via ONIE.
type OSImage struct {
	Version string `json:"version"`
	Data    []byte `json:"data"`
}

// DetachedSignature is the X.509-style detached signature shipped alongside
// an ONIE image.
type DetachedSignature struct {
	ImageDigest string `json:"imageDigest"`
	Signature   []byte `json:"signature"`
	SignerName  string `json:"signerName"`
}

// ImageSigner signs OS images (the vendor build pipeline).
type ImageSigner struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
	Name string
}

// NewImageSigner creates a signer with a fresh key.
func NewImageSigner(name string) (*ImageSigner, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("image key: %w", err)
	}
	return &ImageSigner{priv: priv, pub: pub, Name: name}, nil
}

// PublicKey returns the signer's verification key.
func (s *ImageSigner) PublicKey() ed25519.PublicKey {
	out := make(ed25519.PublicKey, len(s.pub))
	copy(out, s.pub)
	return out
}

// Sign produces the detached signature for an image.
func (s *ImageSigner) Sign(img OSImage) DetachedSignature {
	digest := digestOf(img.Data)
	return DetachedSignature{
		ImageDigest: digest,
		Signature:   ed25519.Sign(s.priv, imageMessage(img.Version, digest)),
		SignerName:  s.Name,
	}
}

func imageMessage(version, digest string) []byte {
	h := sha256.New()
	h.Write([]byte("genio-onie-image-v1"))
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write([]byte(digest))
	return h.Sum(nil)
}

// onieAnchorIndex is the TPM NV index holding the trusted image key.
const onieAnchorIndex = "onie-trust-anchor"

// ProvisionTrustAnchor stores the image-signing public key in TPM NV
// storage, making it the locally trusted anchor ONIE validates against.
func ProvisionTrustAnchor(t *tpm.TPM, pub ed25519.PublicKey) {
	t.NVWrite(onieAnchorIndex, pub)
}

// ONIE is the install environment on a node: it verifies images against the
// TPM-backed anchor and applies them. Environment captures the NIST
// SP 800-193 requirement that updates run from a minimal, Secure-Boot-
// verified environment rather than the (possibly compromised) full OS.
type ONIE struct {
	TPM *tpm.TPM
	// MinimalEnvVerified is true when the node rebooted into the verified
	// minimal environment; applying from a full OS is refused.
	MinimalEnvVerified bool
	// CurrentVersion tracks the installed OS image version.
	CurrentVersion string
	// AntiRollback, when set, refuses validly signed images older than the
	// installed version — the SP 800-193 rollback-protection requirement
	// (an attacker must not be able to reinstall a signed-but-vulnerable
	// release).
	AntiRollback bool
}

// ErrRollback is returned when anti-rollback refuses a downgrade.
var ErrRollback = errors.New("updates: downgrade refused (anti-rollback)")

// versionNumber extracts the dotted-numeric tail of an image version like
// "onl-4.19.300" for ordering.
func versionNumber(v string) string {
	if i := strings.LastIndexByte(v, '-'); i >= 0 {
		return v[i+1:]
	}
	return v
}

// VerifyImage validates an image + detached signature against the TPM
// trust anchor without applying it.
func (o *ONIE) VerifyImage(img OSImage, sig DetachedSignature) error {
	anchor, ok := o.TPM.NVRead(onieAnchorIndex)
	if !ok {
		return ErrNoTrustAnchor
	}
	if digestOf(img.Data) != sig.ImageDigest {
		return fmt.Errorf("%w: image %s", ErrBadDigest, img.Version)
	}
	if !ed25519.Verify(ed25519.PublicKey(anchor), imageMessage(img.Version, sig.ImageDigest), sig.Signature) {
		return fmt.Errorf("%w: image %s signed by %s", ErrBadSignature, img.Version, sig.SignerName)
	}
	return nil
}

// Apply verifies and installs an OS image. It refuses to run outside the
// verified minimal environment, and refuses downgrades when anti-rollback
// is enabled.
func (o *ONIE) Apply(img OSImage, sig DetachedSignature) error {
	if !o.MinimalEnvVerified {
		return ErrInsecureApply
	}
	if err := o.VerifyImage(img, sig); err != nil {
		return err
	}
	if o.AntiRollback && o.CurrentVersion != "" {
		if vuln.CompareVersions(versionNumber(img.Version), versionNumber(o.CurrentVersion)) < 0 {
			return fmt.Errorf("%w: %s < %s", ErrRollback, img.Version, o.CurrentVersion)
		}
	}
	o.CurrentVersion = img.Version
	return nil
}
