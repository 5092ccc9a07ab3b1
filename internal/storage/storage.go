// Package storage implements GENIO's data-at-rest protection (M6): LUKS-
// style encrypted volumes whose master key is protected either by a
// passphrase (PBKDF-stretched) or by a Clevis-style TPM binding that
// releases the key automatically when the measured boot state matches.
//
// It also reproduces the Lesson-3 deployment friction: on ONL (Debian 10)
// the TPM libraries Clevis needs are unavailable, so the TPM keyslot cannot
// be provisioned and operators fall back to manual passphrase entry — which
// the package models explicitly so experiments can quantify the operational
// cost.
package storage

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"genio/internal/tpm"
)

// Errors returned by volume operations.
var (
	ErrLocked        = errors.New("storage: volume locked")
	ErrBadPassphrase = errors.New("storage: wrong passphrase")
	ErrNoSlot        = errors.New("storage: no such keyslot")
	ErrTPMUnavail    = errors.New("storage: tpm libraries unavailable on this distro")
	ErrCorrupt       = errors.New("storage: ciphertext corrupt")
)

// pbkdfIterations models the KDF work factor. Real LUKS uses argon2/pbkdf2
// with high cost; the simulation keeps the shape (iterated hashing) cheap.
const pbkdfIterations = 4096

// slotKind discriminates keyslot types.
type slotKind int

const (
	slotPassphrase slotKind = iota + 1
	slotTPM
)

// keySlot protects the volume master key under one unlock method, like a
// LUKS keyslot.
type keySlot struct {
	kind slotKind
	// passphrase slot
	salt      []byte
	wrapped   []byte // master key encrypted under KDF(passphrase)
	wrapNonce []byte
	// tpm slot
	sealed *tpm.SealedBlob
}

// Volume is an encrypted partition. Data operations require the volume to
// be unlocked. Safe for concurrent use.
type Volume struct {
	Name string

	mu        sync.Mutex
	masterKey []byte // nil while locked
	slots     map[string]*keySlot
	data      map[string][]byte // path -> AES-GCM sealed content
	unlocks   int
	manual    int // unlocks that required a human-entered passphrase
}

// CreateVolume initializes an encrypted volume with a passphrase keyslot
// named "passphrase". The volume starts unlocked.
func CreateVolume(name, passphrase string) (*Volume, error) {
	master := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, master); err != nil {
		return nil, fmt.Errorf("master key: %w", err)
	}
	v := &Volume{
		Name:      name,
		masterKey: master,
		slots:     make(map[string]*keySlot),
		data:      make(map[string][]byte),
	}
	if err := v.AddPassphraseSlot("passphrase", passphrase); err != nil {
		return nil, err
	}
	return v, nil
}

func deriveKey(passphrase string, salt []byte) []byte {
	sum := sha256.Sum256(append(salt, []byte(passphrase)...))
	for i := 0; i < pbkdfIterations; i++ {
		sum = sha256.Sum256(sum[:])
	}
	return sum[:]
}

func gcmFor(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	return cipher.NewGCM(block)
}

// AddPassphraseSlot wraps the master key under a passphrase-derived key.
// The volume must be unlocked.
func (v *Volume) AddPassphraseSlot(name, passphrase string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.masterKey == nil {
		return ErrLocked
	}
	salt := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, salt); err != nil {
		return fmt.Errorf("salt: %w", err)
	}
	gcm, err := gcmFor(deriveKey(passphrase, salt))
	if err != nil {
		return err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return fmt.Errorf("nonce: %w", err)
	}
	v.slots[name] = &keySlot{
		kind:      slotPassphrase,
		salt:      salt,
		wrapped:   gcm.Seal(nil, nonce, v.masterKey, []byte(name)),
		wrapNonce: nonce,
	}
	return nil
}

// ClevisConfig describes the TPM auto-unlock environment. HasTPMLibs models
// whether the distro ships the tpm2-tss stack Clevis requires — false on
// ONL Debian 10 (Lesson 3).
type ClevisConfig struct {
	TPM          *tpm.TPM
	PCRSelection []int
	HasTPMLibs   bool
}

// BindTPMSlot provisions a Clevis-style keyslot sealing the master key to
// the current PCR state. Fails with ErrTPMUnavail when the required
// libraries are missing, reproducing the Lesson-3 obstacle.
func (v *Volume) BindTPMSlot(name string, cfg ClevisConfig) error {
	if !cfg.HasTPMLibs {
		return fmt.Errorf("%w: cannot provision clevis slot %q", ErrTPMUnavail, name)
	}
	if cfg.TPM == nil {
		return errors.New("storage: nil TPM")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.masterKey == nil {
		return ErrLocked
	}
	sealed, err := cfg.TPM.Seal(v.masterKey, cfg.PCRSelection)
	if err != nil {
		return fmt.Errorf("seal master key: %w", err)
	}
	v.slots[name] = &keySlot{kind: slotTPM, sealed: sealed}
	return nil
}

// Lock discards the in-memory master key; subsequent data operations fail
// until an unlock succeeds.
func (v *Volume) Lock() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.masterKey = nil
}

// Locked reports whether the volume is locked.
func (v *Volume) Locked() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.masterKey == nil
}

// UnlockPassphrase unlocks using a passphrase slot; this is the manual
// fallback path whose operational cost Lesson 3 highlights.
func (v *Volume) UnlockPassphrase(slotName, passphrase string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	slot, ok := v.slots[slotName]
	if !ok || slot.kind != slotPassphrase {
		return fmt.Errorf("%w: %s", ErrNoSlot, slotName)
	}
	gcm, err := gcmFor(deriveKey(passphrase, slot.salt))
	if err != nil {
		return err
	}
	master, err := gcm.Open(nil, slot.wrapNonce, slot.wrapped, []byte(slotName))
	if err != nil {
		return ErrBadPassphrase
	}
	v.masterKey = master
	v.unlocks++
	v.manual++
	return nil
}

// UnlockTPM unlocks using a Clevis-style slot: the TPM releases the master
// key only if the PCR policy matches the sealed state (i.e. the node booted
// the expected software).
func (v *Volume) UnlockTPM(slotName string, t *tpm.TPM) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	slot, ok := v.slots[slotName]
	if !ok || slot.kind != slotTPM {
		return fmt.Errorf("%w: %s", ErrNoSlot, slotName)
	}
	master, err := t.Unseal(slot.sealed)
	if err != nil {
		return fmt.Errorf("tpm unseal: %w", err)
	}
	v.masterKey = master
	v.unlocks++
	return nil
}

// Write stores content encrypted under the master key.
func (v *Volume) Write(path string, content []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.masterKey == nil {
		return ErrLocked
	}
	gcm, err := gcmFor(v.masterKey)
	if err != nil {
		return err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return fmt.Errorf("nonce: %w", err)
	}
	v.data[path] = append(nonce, gcm.Seal(nil, nonce, content, []byte(path))...)
	return nil
}

// Read decrypts stored content.
func (v *Volume) Read(path string) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.masterKey == nil {
		return nil, ErrLocked
	}
	blob, ok := v.data[path]
	if !ok {
		return nil, fmt.Errorf("storage: %s not found", path)
	}
	gcm, err := gcmFor(v.masterKey)
	if err != nil {
		return nil, err
	}
	if len(blob) < gcm.NonceSize() {
		return nil, ErrCorrupt
	}
	pt, err := gcm.Open(nil, blob[:gcm.NonceSize()], blob[gcm.NonceSize():], []byte(path))
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, path)
	}
	return pt, nil
}

// RawData exposes the ciphertext of a path, modelling what a thief who
// steals the disk sees.
func (v *Volume) RawData(path string) ([]byte, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	b, ok := v.data[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// UnlockStats reports total unlocks and how many needed manual passphrase
// entry — the Lesson-3 operational-cost metric.
func (v *Volume) UnlockStats() (total, manual int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.unlocks, v.manual
}
