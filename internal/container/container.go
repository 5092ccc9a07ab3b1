// Package container models the container supply chain GENIO's application-
// level mitigations operate on: images built from layers, configuration
// (entrypoint, user, Linux capabilities), a dependency manifest for SCA,
// and a registry with publisher signing.
//
// Images are the unit that T7 (vulnerable applications) and T8 (malicious
// applications) arrive in, and the artifact M13/M16 scan before admission.
package container

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"sort"
	"strings"
	"sync"
)

// File is one file inside an image layer.
type File struct {
	Path    string `json:"path"`
	Mode    uint32 `json:"mode"`
	Content []byte `json:"content"`
}

// Layer is an ordered set of files; later layers override earlier ones.
type Layer struct {
	Files []File `json:"files"`
}

// Digest computes the layer content digest (order-insensitive over file
// paths, binary-encoded — no reflection formatting on the deploy path).
func (l Layer) Digest() string {
	files := l.Files
	byPath := func(i, j int) bool { return files[i].Path < files[j].Path }
	if !sort.SliceIsSorted(files, byPath) {
		// Only pay the copy when the layer is actually unordered; the
		// original slice is never mutated either way.
		files = append([]File(nil), l.Files...)
		sort.Slice(files, byPath)
	}
	w := hasher{h: sha256.New()}
	for _, f := range files {
		w.str(f.Path)
		w.u32(f.Mode)
		w.u64(uint64(len(f.Content)))
		w.h.Write(f.Content)
	}
	return w.sum()
}

// Dependency is one entry in the image's software manifest, the SCA input.
type Dependency struct {
	Name     string `json:"name"`
	Version  string `json:"version"`
	Language string `json:"language"` // "python", "java", "go", "os"
	// Direct is true for dependencies the application imports itself.
	Direct bool `json:"direct"`
	// Reachable is true when application code actually calls into the
	// dependency. SCA tools that ignore reachability flag everything and
	// produce the Lesson-7 noise; reachability-aware filtering trims it.
	Reachable bool `json:"reachable"`
}

// Config is the runtime configuration baked into an image.
type Config struct {
	Entrypoint   []string `json:"entrypoint"`
	User         string   `json:"user"` // "" or "root" means UID 0
	Capabilities []string `json:"capabilities,omitempty"`
	Env          []string `json:"env,omitempty"`
	ExposedPorts []int    `json:"exposedPorts,omitempty"`
	// HasRESTAPI marks images exposing an OpenAPI-described REST surface,
	// the precondition for DAST fuzzing (Lesson 7).
	HasRESTAPI bool `json:"hasRestApi"`
}

// RunsAsRoot reports whether the image executes as UID 0.
func (c Config) RunsAsRoot() bool { return c.User == "" || c.User == "root" }

// HasCapability reports whether the image requests a Linux capability.
func (c Config) HasCapability(cap string) bool {
	for _, v := range c.Capabilities {
		if strings.EqualFold(v, cap) {
			return true
		}
	}
	return false
}

// Image is a container image.
type Image struct {
	Name         string       `json:"name"`
	Tag          string       `json:"tag"`
	Layers       []Layer      `json:"layers"`
	Config       Config       `json:"config"`
	Dependencies []Dependency `json:"dependencies"`
}

// Ref returns name:tag.
func (i *Image) Ref() string { return i.Name + ":" + i.Tag }

// hasher wraps a hash with one reusable scratch buffer, so the length
// prefixes and scalar fields below hash without a per-call allocation —
// Digest runs once per deployment on the admission path.
type hasher struct {
	h       hash.Hash
	buf     [8]byte
	scratch []byte
}

// str writes a length-delimited string, so element boundaries can never
// be confused whatever the contents. The scratch buffer is reused
// across calls: hash.Hash only takes []byte, and handing it a fresh
// conversion of every string would allocate per field on the admission
// hot path.
func (w *hasher) str(s string) {
	w.u32(uint32(len(s)))
	w.scratch = append(w.scratch[:0], s...)
	w.h.Write(w.scratch)
}

// count writes a slice's element count before its elements. Without it,
// adjacent slice fields concatenate into one flat element stream and
// elements can migrate across field boundaries without changing the
// digest (e.g. a trailing Entrypoint arg reinterpreted as User + a
// Capability).
func (w *hasher) count(n int) {
	w.u32(uint32(n))
}

func (w *hasher) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.h.Write(w.buf[:4])
}

func (w *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *hasher) flag(v bool) {
	w.buf[0] = 0
	if v {
		w.buf[0] = 1
	}
	w.h.Write(w.buf[:1])
}

func (w *hasher) sum() string {
	var out [sha256.Size]byte
	return hex.EncodeToString(w.h.Sum(out[:0]))
}

// Digest computes the image manifest digest over layer digests and
// config. Deliberately recomputed on every call — never memoized — so a
// tampered image (the registry-compromise threat) can never hide behind
// a stale digest. The admission pipeline calls this per deployment for
// its cache keys, so the encoding is hand-rolled rather than
// reflection-formatted.
func (i *Image) Digest() string {
	w := hasher{h: sha256.New()}
	w.str(i.Name)
	w.str(i.Tag)
	// The digest covers the complete manifest — layers, the full config
	// (env included: LD_PRELOAD-style injection must not verify against
	// the clean image's signature), and the dependency manifest the SCA
	// gate scans — so publisher signatures and the admission
	// clean-verdict cache bind everything the scanners consume. Every
	// slice field is prefixed with its element count (and every element
	// is length-delimited), making the encoding injective: elements
	// cannot migrate between adjacent fields, so distinct images cannot
	// collide.
	w.count(len(i.Layers))
	for _, l := range i.Layers {
		w.str(l.Digest())
	}
	w.count(len(i.Config.Entrypoint))
	for _, e := range i.Config.Entrypoint {
		w.str(e)
	}
	w.str(i.Config.User)
	w.count(len(i.Config.Capabilities))
	for _, c := range i.Config.Capabilities {
		w.str(c)
	}
	w.count(len(i.Config.Env))
	for _, e := range i.Config.Env {
		w.str(e)
	}
	w.count(len(i.Config.ExposedPorts))
	for _, p := range i.Config.ExposedPorts {
		w.u64(uint64(p))
	}
	w.flag(i.Config.HasRESTAPI)
	w.count(len(i.Dependencies))
	for _, d := range i.Dependencies {
		w.str(d.Name)
		w.str(d.Version)
		w.str(d.Language)
		w.flag(d.Direct)
		w.flag(d.Reachable)
	}
	return w.sum()
}

// Flatten merges layers into the final filesystem view (later layers win).
// This is what Crane-style extraction (M13) hands to SAST scanners.
func (i *Image) Flatten() map[string]File {
	out := make(map[string]File)
	for _, l := range i.Layers {
		for _, f := range l.Files {
			out[f.Path] = f
		}
	}
	return out
}

// --- Registry ---------------------------------------------------------------

// Signature is a publisher's signature over an image digest.
type Signature struct {
	Publisher string `json:"publisher"`
	Digest    string `json:"digest"`
	Sig       []byte `json:"sig"`
}

// Errors returned by registry operations.
var (
	ErrNotFound     = errors.New("container: image not found")
	ErrUnsigned     = errors.New("container: image not signed")
	ErrBadSignature = errors.New("container: image signature invalid")
)

// Publisher signs images for distribution (a business user in GENIO terms).
type Publisher struct {
	Name string
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewPublisher creates a publisher with a fresh key.
func NewPublisher(name string) (*Publisher, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("publisher key: %w", err)
	}
	return &Publisher{Name: name, priv: priv, pub: pub}, nil
}

// PublicKey returns the publisher verification key.
func (p *Publisher) PublicKey() ed25519.PublicKey {
	out := make(ed25519.PublicKey, len(p.pub))
	copy(out, p.pub)
	return out
}

// Sign produces a signature over the image digest.
func (p *Publisher) Sign(img *Image) Signature {
	d := img.Digest()
	return Signature{Publisher: p.Name, Digest: d, Sig: ed25519.Sign(p.priv, []byte(d))}
}

// Registry stores images and their signatures; it is the public GENIO
// image registry business users publish to. Safe for concurrent use.
//
// Signature verification is cached per ref: image content is immutable
// under a digest, so once a (image, signature, key) triple has verified,
// re-pulling the same ref skips the digest and ed25519 work — the deploy
// hot path pulls the same tenant image across many nodes. The cache entry
// is dropped whenever the ref is re-pushed or publisher trust changes.
type Registry struct {
	mu         sync.RWMutex
	images     map[string]*Image
	signatures map[string]Signature
	publishers map[string]ed25519.PublicKey // trusted publisher keys
	verified   map[string]verifiedEntry     // refs whose current content verified clean
}

// verifiedEntry records exactly what was verified so any swap of image,
// signature, or key invalidates the hit.
type verifiedEntry struct {
	img *Image
	sig string // signature bytes
	pub string // publisher key bytes
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		images:     make(map[string]*Image),
		signatures: make(map[string]Signature),
		publishers: make(map[string]ed25519.PublicKey),
		verified:   make(map[string]verifiedEntry),
	}
}

// TrustPublisher registers a publisher's verification key.
func (r *Registry) TrustPublisher(name string, pub ed25519.PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.publishers[name] = pub
	// Re-keying a publisher can invalidate previous verifications.
	r.verified = make(map[string]verifiedEntry)
}

// Push stores an image, optionally with its signature.
func (r *Registry) Push(img *Image, sig *Signature) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.images[img.Ref()] = img
	if sig != nil {
		r.signatures[img.Ref()] = *sig
	}
	delete(r.verified, img.Ref())
}

// Pull retrieves an image without verification (the permissive default).
func (r *Registry) Pull(ref string) (*Image, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	img, ok := r.images[ref]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, ref)
	}
	return img, nil
}

// PullVerified retrieves an image and verifies its signature against a
// trusted publisher key, the hardened admission posture.
func (r *Registry) PullVerified(ref string) (*Image, error) {
	r.mu.RLock()
	img, ok := r.images[ref]
	if !ok {
		r.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, ref)
	}
	sig, ok := r.signatures[ref]
	if !ok {
		r.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrUnsigned, ref)
	}
	pub, ok := r.publishers[sig.Publisher]
	if !ok {
		r.mu.RUnlock()
		return nil, fmt.Errorf("%w: unknown publisher %q", ErrBadSignature, sig.Publisher)
	}
	if e, hit := r.verified[ref]; hit && e.img == img && e.sig == string(sig.Sig) && e.pub == string(pub) {
		r.mu.RUnlock()
		return img, nil
	}
	r.mu.RUnlock()

	d := img.Digest()
	if sig.Digest != d || !ed25519.Verify(pub, []byte(d), sig.Sig) {
		return nil, fmt.Errorf("%w: %s", ErrBadSignature, ref)
	}

	r.mu.Lock()
	// Only cache if the ref still holds exactly what was verified.
	if r.images[ref] == img {
		if cur, ok := r.signatures[ref]; ok && string(cur.Sig) == string(sig.Sig) {
			r.verified[ref] = verifiedEntry{img: img, sig: string(sig.Sig), pub: string(pub)}
		}
	}
	r.mu.Unlock()
	return img, nil
}

// List returns all image refs sorted.
func (r *Registry) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.images))
	for ref := range r.images {
		out = append(out, ref)
	}
	sort.Strings(out)
	return out
}
