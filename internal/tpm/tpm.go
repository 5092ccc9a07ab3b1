// Package tpm provides a software Trusted Platform Module used as the
// platform root of trust throughout GENIO.
//
// The paper (M5, M6) relies on a hardware TPM 2.0 for Measured Boot (PCR
// extension), remote attestation (quotes), and sealing disk-encryption keys
// against PCR policy. We do not have the silicon, so this package implements
// the same primitives in software with real cryptography: SHA-256 PCR banks,
// Ed25519 attestation keys, and AES-GCM sealed blobs whose release is gated
// on the current PCR state. The hash-chain and signature semantics — the
// part the security argument depends on — are identical to the hardware.
package tpm

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// PCRCount is the number of Platform Configuration Registers in the bank,
// matching the TPM 2.0 SHA-256 bank layout.
const PCRCount = 24

// Well-known PCR indices used by the GENIO boot chain, following the
// TCG PC Client profile conventions the paper's Measured Boot relies on.
const (
	PCRFirmware   = 0  // firmware / shim measurements
	PCRBootloader = 4  // GRUB measurements
	PCRKernel     = 8  // kernel and initrd measurements
	PCRConfig     = 9  // kernel command line and boot config
	PCRApp        = 14 // GENIO platform binaries (daemons, tools)
)

// Digest is a SHA-256 digest value.
type Digest [sha256.Size]byte

// String returns the digest in lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Event records a single measurement extended into a PCR, forming the
// TPM event log used to reconstruct and verify the hash chain.
type Event struct {
	PCR         int    `json:"pcr"`
	Description string `json:"description"`
	Measured    Digest `json:"measured"`
}

// Quote is a signed report of a subset of PCR values, used for remote
// attestation of node state (M5).
type Quote struct {
	PCRs      map[int]Digest `json:"pcrs"`
	Nonce     []byte         `json:"nonce"`
	Signature []byte         `json:"signature"`
}

// SealedBlob is a secret encrypted by the TPM such that it can only be
// unsealed while the selected PCRs hold the values they had at seal time.
// This mirrors TPM2 policy sessions used by LUKS/Clevis (M6).
type SealedBlob struct {
	PCRSelection []int  `json:"pcrSelection"`
	PolicyDigest Digest `json:"policyDigest"`
	Nonce        []byte `json:"nonce"`
	Ciphertext   []byte `json:"ciphertext"`
}

var (
	// ErrPolicyMismatch is returned by Unseal when the current PCR state
	// does not match the policy the blob was sealed against.
	ErrPolicyMismatch = errors.New("tpm: pcr policy mismatch")
	// ErrInvalidPCR is returned for PCR indices outside the bank.
	ErrInvalidPCR = errors.New("tpm: invalid pcr index")
	// ErrBadQuote is returned when quote verification fails.
	ErrBadQuote = errors.New("tpm: quote verification failed")
)

// TPM is a software TPM instance. The zero value is not usable; create
// instances with New. TPM is safe for concurrent use.
type TPM struct {
	mu    sync.Mutex
	pcrs  [PCRCount]Digest
	log   []Event
	ak    ed25519.PrivateKey // attestation key, never leaves the TPM
	akPub ed25519.PublicKey
	srk   [32]byte // storage root key for sealing
	nv    map[string][]byte
	rand  io.Reader
}

// New creates a TPM with freshly generated attestation and storage keys.
func New() (*TPM, error) {
	return NewFromReader(rand.Reader)
}

// NewFromReader creates a TPM drawing key material from r. Tests pass a
// deterministic reader to get reproducible identities.
func NewFromReader(r io.Reader) (*TPM, error) {
	pub, priv, err := ed25519.GenerateKey(r)
	if err != nil {
		return nil, fmt.Errorf("generate attestation key: %w", err)
	}
	t := &TPM{ak: priv, akPub: pub, nv: make(map[string][]byte), rand: r}
	if _, err := io.ReadFull(r, t.srk[:]); err != nil {
		return nil, fmt.Errorf("generate storage root key: %w", err)
	}
	return t, nil
}

// AttestationPublicKey returns the public half of the attestation key.
// Verifiers use it to check quotes; it acts as the node's hardware identity.
func (t *TPM) AttestationPublicKey() ed25519.PublicKey {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(ed25519.PublicKey, len(t.akPub))
	copy(out, t.akPub)
	return out
}

// Extend folds data into the given PCR: pcr' = H(pcr || H(data)), recording
// the event in the log. This is the Measured Boot primitive (M5).
func (t *TPM) Extend(pcr int, description string, data []byte) (Digest, error) {
	if pcr < 0 || pcr >= PCRCount {
		return Digest{}, fmt.Errorf("%w: %d", ErrInvalidPCR, pcr)
	}
	measured := sha256.Sum256(data)
	t.mu.Lock()
	defer t.mu.Unlock()
	h := sha256.New()
	h.Write(t.pcrs[pcr][:])
	h.Write(measured[:])
	copy(t.pcrs[pcr][:], h.Sum(nil))
	t.log = append(t.log, Event{PCR: pcr, Description: description, Measured: measured})
	return t.pcrs[pcr], nil
}

// PCR returns the current value of a register.
func (t *TPM) PCR(pcr int) (Digest, error) {
	if pcr < 0 || pcr >= PCRCount {
		return Digest{}, fmt.Errorf("%w: %d", ErrInvalidPCR, pcr)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pcrs[pcr], nil
}

// ReplayLog recomputes the PCR values implied by events. Verifiers use it to
// check that a presented event log is consistent with a quote.
func ReplayLog(events []Event) map[int]Digest {
	pcrs := make(map[int]Digest)
	for _, e := range events {
		prev := pcrs[e.PCR]
		h := sha256.New()
		h.Write(prev[:])
		h.Write(e.Measured[:])
		var next Digest
		copy(next[:], h.Sum(nil))
		pcrs[e.PCR] = next
	}
	return pcrs
}

// Quote signs the selected PCR values together with a verifier-supplied
// nonce, producing an attestation statement.
func (t *TPM) Quote(pcrSelection []int, nonce []byte) (*Quote, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := &Quote{PCRs: make(map[int]Digest, len(pcrSelection)), Nonce: append([]byte(nil), nonce...)}
	for _, p := range pcrSelection {
		if p < 0 || p >= PCRCount {
			return nil, fmt.Errorf("%w: %d", ErrInvalidPCR, p)
		}
		q.PCRs[p] = t.pcrs[p]
	}
	q.Signature = ed25519.Sign(t.ak, quoteMessage(q.PCRs, nonce))
	return q, nil
}

// VerifyQuote checks a quote's signature against the claimed attestation key
// and, if expected is non-nil, that the quoted PCRs match expected values.
func VerifyQuote(pub ed25519.PublicKey, q *Quote, expected map[int]Digest) error {
	if q == nil {
		return fmt.Errorf("%w: nil quote", ErrBadQuote)
	}
	if !ed25519.Verify(pub, quoteMessage(q.PCRs, q.Nonce), q.Signature) {
		return fmt.Errorf("%w: bad signature", ErrBadQuote)
	}
	for pcr, want := range expected {
		got, ok := q.PCRs[pcr]
		if !ok {
			return fmt.Errorf("%w: pcr %d not quoted", ErrBadQuote, pcr)
		}
		if got != want {
			return fmt.Errorf("%w: pcr %d = %s, want %s", ErrBadQuote, pcr, got, want)
		}
	}
	return nil
}

func quoteMessage(pcrs map[int]Digest, nonce []byte) []byte {
	idx := make([]int, 0, len(pcrs))
	for p := range pcrs {
		idx = append(idx, p)
	}
	sort.Ints(idx)
	h := sha256.New()
	h.Write([]byte("genio-tpm-quote-v1"))
	h.Write(nonce)
	var buf [4]byte
	for _, p := range idx {
		binary.BigEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
		d := pcrs[p]
		h.Write(d[:])
	}
	return h.Sum(nil)
}

// policyDigest computes the digest binding a seal operation to PCR state.
func (t *TPM) policyDigest(selection []int) (Digest, error) {
	sorted := append([]int(nil), selection...)
	sort.Ints(sorted)
	h := sha256.New()
	h.Write([]byte("genio-tpm-policy-v1"))
	var buf [4]byte
	for _, p := range sorted {
		if p < 0 || p >= PCRCount {
			return Digest{}, fmt.Errorf("%w: %d", ErrInvalidPCR, p)
		}
		binary.BigEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
		h.Write(t.pcrs[p][:])
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d, nil
}

// Seal encrypts secret so that Unseal succeeds only while the selected PCRs
// hold their current values. This is the Clevis/LUKS binding used by M6.
func (t *TPM) Seal(secret []byte, pcrSelection []int) (*SealedBlob, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	policy, err := t.policyDigest(pcrSelection)
	if err != nil {
		return nil, err
	}
	key := t.sealKey(policy)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("seal cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seal gcm: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(t.rand, nonce); err != nil {
		return nil, fmt.Errorf("seal nonce: %w", err)
	}
	ct := gcm.Seal(nil, nonce, secret, policy[:])
	sel := append([]int(nil), pcrSelection...)
	sort.Ints(sel)
	return &SealedBlob{PCRSelection: sel, PolicyDigest: policy, Nonce: nonce, Ciphertext: ct}, nil
}

// Unseal decrypts a sealed blob if and only if the current PCR state matches
// the policy the blob was sealed under.
func (t *TPM) Unseal(blob *SealedBlob) ([]byte, error) {
	if blob == nil {
		return nil, errors.New("tpm: nil blob")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	policy, err := t.policyDigest(blob.PCRSelection)
	if err != nil {
		return nil, err
	}
	if policy != blob.PolicyDigest {
		return nil, fmt.Errorf("%w: environment changed since seal", ErrPolicyMismatch)
	}
	key := t.sealKey(policy)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("unseal cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("unseal gcm: %w", err)
	}
	pt, err := gcm.Open(nil, blob.Nonce, blob.Ciphertext, policy[:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPolicyMismatch, err)
	}
	return pt, nil
}

func (t *TPM) sealKey(policy Digest) [32]byte {
	h := sha256.New()
	h.Write(t.srk[:])
	h.Write(policy[:])
	var key [32]byte
	copy(key[:], h.Sum(nil))
	return key
}

// NVWrite stores a small value in TPM non-volatile storage, used for trust
// anchors (e.g. the ONIE update public key backed by the TPM in M9).
func (t *TPM) NVWrite(index string, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nv[index] = append([]byte(nil), data...)
}

// NVRead returns a value from non-volatile storage.
func (t *TPM) NVRead(index string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.nv[index]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}
