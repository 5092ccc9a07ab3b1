// Package secureboot implements the GENIO boot-integrity chain (M5): a
// Shim-style first-stage loader verified against a platform trust anchor,
// which then verifies GRUB, which verifies the kernel and initrd — with
// every stage also *measured* into TPM PCRs (Measured Boot), so later
// attestation and sealed-storage policies can detect divergence.
//
// The paper uses UEFI Secure Boot with the Microsoft-signed Shim plus
// GENIO's own keys for later stages; we reproduce the same delegation
// structure with Ed25519: a vendor key signs the shim, the shim embeds the
// platform key (MOK-style) that validates every later component.
package secureboot

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"

	"genio/internal/tpm"
)

// Stage identifies a boot chain stage, in boot order.
type Stage int

// Boot stages.
const (
	StageShim Stage = iota + 1
	StageBootloader
	StageKernel
	StageInitrd
	StageConfig
)

var stageNames = map[Stage]string{
	StageShim:       "shim",
	StageBootloader: "grub",
	StageKernel:     "kernel",
	StageInitrd:     "initrd",
	StageConfig:     "config",
}

// String returns the stage name.
func (s Stage) String() string {
	if n, ok := stageNames[s]; ok {
		return n
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// pcrForStage maps stages to the PCRs the TCG profile assigns them.
func pcrForStage(s Stage) int {
	switch s {
	case StageShim:
		return tpm.PCRFirmware
	case StageBootloader:
		return tpm.PCRBootloader
	case StageKernel, StageInitrd:
		return tpm.PCRKernel
	default:
		return tpm.PCRConfig
	}
}

// Component is one signed boot artifact.
type Component struct {
	Stage     Stage  `json:"stage"`
	Name      string `json:"name"`
	Image     []byte `json:"image"`
	Signature []byte `json:"signature"`
}

// Errors returned by boot verification.
var (
	ErrVerification = errors.New("secureboot: signature verification failed")
	ErrChainOrder   = errors.New("secureboot: boot chain out of order")
)

// Signer holds the keys that sign boot components: the vendor key (signs
// the shim, standing in for the Microsoft CA) and the platform key (GENIO's
// own, embedded in the shim, signing everything after it).
type Signer struct {
	vendorPriv   ed25519.PrivateKey
	VendorPub    ed25519.PublicKey
	platformPriv ed25519.PrivateKey
	PlatformPub  ed25519.PublicKey
}

// NewSigner generates fresh vendor and platform keys.
func NewSigner() (*Signer, error) {
	vpub, vpriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("vendor key: %w", err)
	}
	ppub, ppriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("platform key: %w", err)
	}
	return &Signer{vendorPriv: vpriv, VendorPub: vpub, platformPriv: ppriv, PlatformPub: ppub}, nil
}

// SignComponent produces a signed boot component. The shim is signed by the
// vendor key; all later stages by the platform key.
func (s *Signer) SignComponent(stage Stage, name string, image []byte) Component {
	key := s.platformPriv
	if stage == StageShim {
		key = s.vendorPriv
	}
	return Component{
		Stage:     stage,
		Name:      name,
		Image:     append([]byte(nil), image...),
		Signature: ed25519.Sign(key, componentDigest(stage, name, image)),
	}
}

func componentDigest(stage Stage, name string, image []byte) []byte {
	h := sha256.New()
	h.Write([]byte("genio-secureboot-v1"))
	h.Write([]byte{byte(stage)})
	h.Write([]byte(name))
	sum := sha256.Sum256(image)
	h.Write(sum[:])
	return h.Sum(nil)
}

// BootResult reports the outcome of one boot attempt.
type BootResult struct {
	Booted      bool     `json:"booted"`
	Verified    []string `json:"verified"`
	FailedStage string   `json:"failedStage,omitempty"`
	// PCRs holds the post-boot values of the boot-relevant PCRs; sealed
	// storage and attestation key off these.
	PCRs map[int]tpm.Digest `json:"pcrs"`
}

// Firmware is the platform boot ROM: it holds the vendor trust anchor and
// the TPM, and executes boot chains. SecureBoot can be toggled to model the
// unprotected legacy configuration.
type Firmware struct {
	VendorPub  ed25519.PublicKey
	TPM        *tpm.TPM
	SecureBoot bool
	// MeasuredBoot controls whether components are extended into PCRs.
	MeasuredBoot bool
	// dbx is the forbidden-image database (UEFI dbx): digests of revoked
	// components that must not execute even with a valid signature —
	// how the ecosystem handled vulnerable-but-signed bootloaders
	// (BootHole-class incidents).
	dbx map[[sha256.Size]byte]string
}

// NewFirmware builds firmware with the vendor trust anchor and TPM.
func NewFirmware(vendorPub ed25519.PublicKey, t *tpm.TPM) *Firmware {
	return &Firmware{
		VendorPub: vendorPub, TPM: t, SecureBoot: true, MeasuredBoot: true,
		dbx: make(map[[sha256.Size]byte]string),
	}
}

// ErrRevoked is returned when a boot component appears in the dbx.
var ErrRevoked = errors.New("secureboot: component revoked (dbx)")

// RevokeImage adds an image's digest to the forbidden database with a
// human-readable reason.
func (f *Firmware) RevokeImage(image []byte, reason string) {
	f.dbx[sha256.Sum256(image)] = reason
}

// Boot executes a boot chain. Components must be presented in stage order:
// shim first. Under Secure Boot each component's signature is verified
// before "execution" — the shim against the vendor key, later stages against
// the platform key carried by the shim (platformPub). Under Measured Boot
// each component is extended into its PCR regardless of verification, which
// is what lets sealed secrets detect tampering even when Secure Boot is off.
func (f *Firmware) Boot(platformPub ed25519.PublicKey, chain []Component) (*BootResult, error) {
	res := &BootResult{PCRs: make(map[int]tpm.Digest)}
	if len(chain) == 0 {
		return res, fmt.Errorf("%w: empty chain", ErrChainOrder)
	}
	if chain[0].Stage != StageShim {
		return res, fmt.Errorf("%w: first stage %s, want shim", ErrChainOrder, chain[0].Stage)
	}
	last := Stage(0)
	for _, c := range chain {
		if c.Stage < last {
			return res, fmt.Errorf("%w: %s after %s", ErrChainOrder, c.Stage, last)
		}
		last = c.Stage

		if f.MeasuredBoot && f.TPM != nil {
			if _, err := f.TPM.Extend(pcrForStage(c.Stage), c.Name, c.Image); err != nil {
				return res, fmt.Errorf("measure %s: %w", c.Name, err)
			}
		}
		if f.SecureBoot {
			if reason, revoked := f.dbx[sha256.Sum256(c.Image)]; revoked {
				res.FailedStage = c.Stage.String()
				return res, fmt.Errorf("%w: component %q (%s)", ErrRevoked, c.Name, reason)
			}
			pub := platformPub
			if c.Stage == StageShim {
				pub = f.VendorPub
			}
			if !ed25519.Verify(pub, componentDigest(c.Stage, c.Name, c.Image), c.Signature) {
				res.FailedStage = c.Stage.String()
				return res, fmt.Errorf("%w: stage %s component %q", ErrVerification, c.Stage, c.Name)
			}
		}
		res.Verified = append(res.Verified, c.Name)
	}
	if f.MeasuredBoot && f.TPM != nil {
		for _, pcr := range []int{tpm.PCRFirmware, tpm.PCRBootloader, tpm.PCRKernel, tpm.PCRConfig} {
			v, err := f.TPM.PCR(pcr)
			if err != nil {
				return res, err
			}
			res.PCRs[pcr] = v
		}
	}
	res.Booted = true
	return res, nil
}

// GoldenPCRs computes the PCR values a pristine boot of the given chain
// would produce, without touching a real TPM. Verifiers compare attestation
// quotes against these.
func GoldenPCRs(chain []Component) map[int]tpm.Digest {
	events := make([]tpm.Event, 0, len(chain))
	for _, c := range chain {
		events = append(events, tpm.Event{
			PCR:      pcrForStage(c.Stage),
			Measured: sha256.Sum256(c.Image),
		})
	}
	return tpm.ReplayLog(events)
}
