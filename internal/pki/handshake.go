package pki

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hkdf"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// This file implements the mutual-authentication onboarding handshake used
// when an ONU registers against an OLT (M4). It follows the TLS 1.3 pattern:
// ephemeral X25519 key agreement for forward secrecy, certificate exchange,
// signatures over the handshake transcript, and HKDF-derived session keys.
// A rogue device without a CA-issued certificate cannot complete it, which
// is the defense against the ONU-impersonation attack of T1.

// SessionKeys holds the directional traffic secrets derived by a completed
// handshake. Both sides derive identical values.
type SessionKeys struct {
	ClientToServer [32]byte
	ServerToClient [32]byte
}

// HandshakeMessage is one side's contribution: an ephemeral public key, a
// certificate, and a transcript signature proving possession of the
// certified key.
type HandshakeMessage struct {
	EphemeralPub []byte       `json:"ephemeralPub"`
	Cert         *Certificate `json:"cert"`
	Signature    []byte       `json:"signature"`
}

// Handshaker runs one side of the mutual-auth onboarding exchange.
type Handshaker struct {
	identity  *Identity
	ca        *CA
	peerRole  Role
	rand      io.Reader
	ephPriv   *ecdh.PrivateKey
	isClient  bool
	completed bool
	keys      SessionKeys
}

// ErrHandshakeIncomplete is returned when session state is requested before
// the exchange finished.
var ErrHandshakeIncomplete = errors.New("pki: handshake not complete")

// NewHandshaker prepares one endpoint of the handshake. isClient selects the
// key-derivation direction (the ONU is the client, the OLT the server).
// peerRole is the role the remote certificate must carry.
func NewHandshaker(id *Identity, ca *CA, peerRole Role, isClient bool, rnd io.Reader) (*Handshaker, error) {
	if id == nil || id.Certificate == nil {
		return nil, errors.New("pki: handshaker requires an identity")
	}
	priv, err := ecdh.X25519().GenerateKey(rnd)
	if err != nil {
		return nil, fmt.Errorf("ephemeral key: %w", err)
	}
	return &Handshaker{
		identity: id,
		ca:       ca,
		peerRole: peerRole,
		rand:     rnd,
		ephPriv:  priv,
		isClient: isClient,
	}, nil
}

// Offer produces this side's handshake message. The transcript signature
// covers both ephemeral public keys, so Offer for the responder must be
// called with the initiator's message via Accept instead; the initiator
// calls Offer first with a zero peer share and finalizes in Accept.
//
// Protocol (symmetric three-step for simulation purposes):
//  1. client: m1 = Offer()            — eph key + cert, signature over own share
//  2. server: m2, err = Accept(m1)    — verifies, replies, derives keys
//  3. client: err = Finish(m2)        — verifies, derives keys
func (h *Handshaker) Offer() (*HandshakeMessage, error) {
	msg := &HandshakeMessage{
		EphemeralPub: h.ephPriv.PublicKey().Bytes(),
		Cert:         h.identity.Certificate,
	}
	msg.Signature = ed25519.Sign(h.identity.PrivateKey, transcript(msg.EphemeralPub, nil))
	return msg, nil
}

// Accept processes the initiator's offer, producing the responder's reply
// and deriving session keys.
func (h *Handshaker) Accept(offer *HandshakeMessage) (*HandshakeMessage, error) {
	if err := h.verifyPeer(offer, transcript(offer.EphemeralPub, nil)); err != nil {
		return nil, err
	}
	reply := &HandshakeMessage{
		EphemeralPub: h.ephPriv.PublicKey().Bytes(),
		Cert:         h.identity.Certificate,
	}
	reply.Signature = ed25519.Sign(h.identity.PrivateKey, transcript(offer.EphemeralPub, reply.EphemeralPub))
	if err := h.deriveKeys(offer.EphemeralPub); err != nil {
		return nil, err
	}
	h.completed = true
	return reply, nil
}

// Finish processes the responder's reply on the initiator side and derives
// session keys.
func (h *Handshaker) Finish(reply *HandshakeMessage) error {
	myPub := h.ephPriv.PublicKey().Bytes()
	if err := h.verifyPeer(reply, transcript(myPub, reply.EphemeralPub)); err != nil {
		return err
	}
	if err := h.deriveKeys(reply.EphemeralPub); err != nil {
		return err
	}
	h.completed = true
	return nil
}

func (h *Handshaker) verifyPeer(msg *HandshakeMessage, signed []byte) error {
	if msg == nil || msg.Cert == nil {
		return fmt.Errorf("%w: empty handshake message", ErrBadSignature)
	}
	if err := h.ca.Verify(msg.Cert, h.peerRole); err != nil {
		return fmt.Errorf("peer certificate: %w", err)
	}
	if !ed25519.Verify(msg.Cert.PublicKey, signed, msg.Signature) {
		return fmt.Errorf("%w: transcript signature from %q", ErrBadSignature, msg.Cert.Subject)
	}
	return nil
}

func (h *Handshaker) deriveKeys(peerEph []byte) error {
	peerPub, err := ecdh.X25519().NewPublicKey(peerEph)
	if err != nil {
		return fmt.Errorf("peer ephemeral key: %w", err)
	}
	shared, err := h.ephPriv.ECDH(peerPub)
	if err != nil {
		return fmt.Errorf("ecdh: %w", err)
	}
	c2s, err := hkdf.Key(sha256.New, shared, nil, "genio onboarding c2s", 32)
	if err != nil {
		return fmt.Errorf("hkdf c2s: %w", err)
	}
	s2c, err := hkdf.Key(sha256.New, shared, nil, "genio onboarding s2c", 32)
	if err != nil {
		return fmt.Errorf("hkdf s2c: %w", err)
	}
	copy(h.keys.ClientToServer[:], c2s)
	copy(h.keys.ServerToClient[:], s2c)
	return nil
}

// SessionKeys returns the derived traffic secrets after a completed
// handshake.
func (h *Handshaker) SessionKeys() (SessionKeys, error) {
	if !h.completed {
		return SessionKeys{}, ErrHandshakeIncomplete
	}
	return h.keys, nil
}

func transcript(initiatorEph, responderEph []byte) []byte {
	h := sha256.New()
	h.Write([]byte("genio-onboarding-v1"))
	h.Write(initiatorEph)
	h.Write(responderEph)
	return h.Sum(nil)
}
