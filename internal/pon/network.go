package pon

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

	"genio/internal/pki"
)

// SecurityMode selects how the PON segment is protected, the experimental
// knob for the Lesson-2 encryption-cost study.
type SecurityMode int

// Security modes.
const (
	// ModePlaintext runs the PON with no payload protection (legacy).
	ModePlaintext SecurityMode = iota + 1
	// ModeEncrypted enables G.987.3-style payload encryption (M3) but
	// accepts any ONU serial at activation (no authentication).
	ModeEncrypted
	// ModeAuthenticated additionally requires certificate-based mutual
	// authentication at activation (M4); keys derive from the handshake.
	ModeAuthenticated
)

// String names the mode.
func (m SecurityMode) String() string {
	switch m {
	case ModePlaintext:
		return "plaintext"
	case ModeEncrypted:
		return "encrypted"
	case ModeAuthenticated:
		return "authenticated"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Errors returned by network operations.
var (
	ErrNotActivated  = errors.New("pon: onu not activated")
	ErrAuthRequired  = errors.New("pon: activation requires authentication")
	ErrPortExhausted = errors.New("pon: no free xgem ports")
	ErrDuplicate     = errors.New("pon: serial already activated")
)

// Tap is an observer attached to the fiber: it sees every downstream frame,
// modelling the physical fiber-tapping attack the paper cites for T1.
type Tap interface {
	Observe(f XGEMFrame)
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(f XGEMFrame)

// Observe calls the wrapped function.
func (fn TapFunc) Observe(f XGEMFrame) { fn(f) }

// ONU is an optical network unit at the customer premises. In GENIO it also
// carries low-end compute for far-edge workloads.
type ONU struct {
	Serial   string
	identity *pki.Identity

	mu       sync.Mutex
	port     PortID
	keys     *KeyRing
	lastSeq  map[PortID]uint64
	received []XGEMFrame // decrypted management/data deliveries
	rejected int
	upstream [][]byte // payloads queued for the next upstream grant
	inflate  int      // DBRu report inflation factor (attack hook)
	// OMCI management-channel state (omci.go).
	omci        OMCILog
	omciLastSeq uint64
}

// NewONU creates an ONU with the given serial. identity may be nil for
// legacy (unauthenticated) units.
func NewONU(serial string, identity *pki.Identity) *ONU {
	return &ONU{
		Serial:   serial,
		identity: identity,
		keys:     NewKeyRing(),
		lastSeq:  make(map[PortID]uint64),
	}
}

// Port returns the XGEM port assigned at activation.
func (o *ONU) Port() PortID {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.port
}

// Received returns a copy of successfully delivered payload frames.
func (o *ONU) Received() []XGEMFrame {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]XGEMFrame, len(o.received))
	copy(out, o.received)
	return out
}

// Rejected reports how many downstream frames failed validation.
func (o *ONU) Rejected() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rejected
}

// deliver processes a downstream frame addressed to this ONU's port (or the
// broadcast port). It enforces decryption and per-port sequence freshness.
func (o *ONU) deliver(f XGEMFrame, mode SecurityMode) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if f.Port != o.port && f.Port != BroadcastPort {
		return nil // not ours; PON ONUs silently filter foreign ports
	}
	if mode != ModePlaintext {
		pt, err := o.keys.DecryptFrame(f)
		if err != nil {
			o.rejected++
			return err
		}
		if last, ok := o.lastSeq[f.Port]; ok && f.Seq <= last {
			o.rejected++
			return fmt.Errorf("%w: port %d seq %d <= %d", ErrReplay, f.Port, f.Seq, last)
		}
		o.lastSeq[f.Port] = f.Seq
		f.Payload = pt
		f.Encrypted = false
	}
	o.received = append(o.received, f)
	return nil
}

// OLT is the optical line terminal in the central office; in GENIO it is
// also an edge compute hub. It terminates the fiber tree, activates ONUs,
// and schedules traffic.
type OLT struct {
	Name string

	mu        sync.Mutex
	mode      SecurityMode
	ca        *pki.CA
	identity  *pki.Identity
	onus      map[string]*ONU // serial -> activated ONU
	ports     map[PortID]*ONU
	keyring   *KeyRing // OLT-side per-port payload keys
	upSeq     map[PortID]uint64
	omciSeq   uint64
	nextPort  PortID
	seq       map[PortID]uint64
	taps      []Tap
	sent      uint64
	activated int
	authFail  int
}

// NewOLT creates an OLT operating in the given security mode. For
// ModeAuthenticated both ca and identity (an OLT-role identity issued by
// ca) are required.
func NewOLT(name string, mode SecurityMode, ca *pki.CA, identity *pki.Identity) (*OLT, error) {
	if mode == ModeAuthenticated && (ca == nil || identity == nil) {
		return nil, errors.New("pon: authenticated mode requires CA and identity")
	}
	o := &OLT{
		Name:     name,
		mode:     mode,
		ca:       ca,
		identity: identity,
		onus:     make(map[string]*ONU),
		ports:    make(map[PortID]*ONU),
		keyring:  NewKeyRing(),
		nextPort: 1,
		seq:      make(map[PortID]uint64),
	}
	return o, nil
}

// Mode returns the OLT security mode.
func (o *OLT) Mode() SecurityMode {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.mode
}

// AttachTap attaches a fiber tap that observes all downstream frames.
// Physical access to the fiber is outside the trust boundary, so the
// simulator lets anyone attach one — exactly the attacker model of T1.
func (o *OLT) AttachTap(t Tap) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.taps = append(o.taps, t)
}

// Activate ranges and activates an ONU on the PON, assigning an XGEM port.
// Under ModeAuthenticated it runs the certificate-based mutual handshake
// (M4) and derives the payload key from the session secret; a rogue ONU
// without a valid certificate fails here. Under ModeEncrypted a random key
// is assigned without verifying the device (the insecure-default posture).
func (o *OLT) Activate(onu *ONU) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.onus[onu.Serial]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, onu.Serial)
	}
	if o.nextPort == BroadcastPort {
		return ErrPortExhausted
	}

	var key [32]byte
	switch o.mode {
	case ModePlaintext:
		// No keys, no auth: any serial joins.
	case ModeEncrypted:
		if _, err := io.ReadFull(rand.Reader, key[:]); err != nil {
			return fmt.Errorf("activation key: %w", err)
		}
	case ModeAuthenticated:
		if onu.identity == nil {
			o.authFail++
			return fmt.Errorf("%w: onu %s has no identity", ErrAuthRequired, onu.Serial)
		}
		sessionKey, err := o.mutualAuth(onu)
		if err != nil {
			o.authFail++
			return fmt.Errorf("activate %s: %w", onu.Serial, err)
		}
		key = sessionKey
	default:
		return fmt.Errorf("pon: unknown security mode %d", o.mode)
	}

	port := o.nextPort
	o.nextPort++
	onu.mu.Lock()
	onu.port = port
	if o.mode != ModePlaintext {
		onu.keys.SetKey(port, key)
	}
	onu.mu.Unlock()

	o.onus[onu.Serial] = onu
	o.ports[port] = onu
	if o.mode != ModePlaintext {
		// OLT keeps the mirror key for the port.
		o.keyring.SetKey(port, key)
	}
	o.activated++
	return nil
}

// mutualAuth runs the onboarding handshake with the ONU and folds the
// session secret into a PON payload key.
func (o *OLT) mutualAuth(onu *ONU) ([32]byte, error) {
	var key [32]byte
	client, err := pki.NewHandshaker(onu.identity, o.ca, pki.RoleOLT, true, rand.Reader)
	if err != nil {
		return key, err
	}
	server, err := pki.NewHandshaker(o.identity, o.ca, pki.RoleONU, false, rand.Reader)
	if err != nil {
		return key, err
	}
	offer, err := client.Offer()
	if err != nil {
		return key, err
	}
	reply, err := server.Accept(offer)
	if err != nil {
		return key, err
	}
	if err := client.Finish(reply); err != nil {
		return key, err
	}
	ks, err := server.SessionKeys()
	if err != nil {
		return key, err
	}
	return ks.ClientToServer, nil
}

// SendDownstream transmits payload to the ONU holding the given port. The
// frame is broadcast on the fiber: every tap and every ONU observes it;
// only the addressee can decrypt it when encryption is on.
func (o *OLT) SendDownstream(port PortID, payload []byte) error {
	o.mu.Lock()
	if _, ok := o.ports[port]; !ok && port != BroadcastPort {
		o.mu.Unlock()
		return fmt.Errorf("%w: port %d", ErrNotActivated, port)
	}
	o.seq[port]++
	seq := o.seq[port]

	var frame XGEMFrame
	if o.mode == ModePlaintext {
		frame = XGEMFrame{Port: port, Seq: seq, Payload: append([]byte(nil), payload...)}
	} else {
		var err error
		frame, err = o.keyring.EncryptFrame(port, seq, payload)
		if err != nil {
			o.mu.Unlock()
			return fmt.Errorf("downstream encrypt: %w", err)
		}
	}
	taps := append([]Tap(nil), o.taps...)
	targets := make([]*ONU, 0, len(o.ports))
	for _, u := range o.ports {
		targets = append(targets, u)
	}
	mode := o.mode
	o.sent++
	o.mu.Unlock()

	for _, t := range taps {
		t.Observe(frame)
	}
	var deliverErr error
	for _, u := range targets {
		if err := u.deliver(frame, mode); err != nil && u.Port() == port {
			deliverErr = err
		}
	}
	return deliverErr
}

// InjectDownstream places an attacker-crafted frame on the fiber (downstream
// hijack / replay injection). It bypasses OLT sequencing entirely, exactly
// as a physical-layer attacker would.
func (o *OLT) InjectDownstream(f XGEMFrame) []error {
	o.mu.Lock()
	taps := append([]Tap(nil), o.taps...)
	targets := make([]*ONU, 0, len(o.ports))
	for _, u := range o.ports {
		targets = append(targets, u)
	}
	mode := o.mode
	o.mu.Unlock()

	for _, t := range taps {
		t.Observe(f)
	}
	var errs []error
	for _, u := range targets {
		if err := u.deliver(f, mode); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// RotateKeys rotates the payload key of every active port on both ends.
func (o *OLT) RotateKeys() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.mode == ModePlaintext {
		return nil
	}
	for port, onu := range o.ports {
		if err := o.keyring.Rotate(port); err != nil {
			return fmt.Errorf("rotate olt side: %w", err)
		}
		onu.mu.Lock()
		err := onu.keys.Rotate(port)
		onu.mu.Unlock()
		if err != nil {
			return fmt.Errorf("rotate onu side: %w", err)
		}
	}
	return nil
}

// Stats reports counters for experiments.
type Stats struct {
	Mode         string `json:"mode"`
	Activated    int    `json:"activated"`
	AuthFailures int    `json:"authFailures"`
	FramesSent   uint64 `json:"framesSent"`
}

// Stats returns a snapshot of OLT counters.
func (o *OLT) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return Stats{
		Mode:         o.mode.String(),
		Activated:    o.activated,
		AuthFailures: o.authFail,
		FramesSent:   o.sent,
	}
}

// ActiveONUs returns the serials of activated ONUs.
func (o *OLT) ActiveONUs() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.onus))
	for s := range o.onus {
		out = append(out, s)
	}
	return out
}
