package macsec

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

var (
	srcMAC = [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	dstMAC = [6]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
	tKey   = [32]byte{1, 2, 3, 4, 5}
)

func testChannel(t *testing.T, window uint64) (*SecY, *SecY) {
	t.Helper()
	a := NewSecY("olt")
	b := NewSecY("switch")
	if _, err := NewChannel(a, b, tKey, window); err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return a, b
}

func TestProtectValidateRoundTrip(t *testing.T) {
	a, b := testChannel(t, 8)
	in := Frame{Src: srcMAC, Dst: dstMAC, EtherID: 0x0800, Payload: []byte("hello edge")}
	pf, err := a.Protect(0, in)
	if err != nil {
		t.Fatalf("Protect: %v", err)
	}
	out, err := b.Validate(pf)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if out.EtherID != in.EtherID || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestCiphertextHidesPayload(t *testing.T) {
	a, _ := testChannel(t, 8)
	payload := []byte("SECRET-TELEMETRY")
	pf, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(pf.Ciphertext, payload) {
		t.Fatal("payload visible in ciphertext")
	}
}

func TestTamperedFrameRejected(t *testing.T) {
	a, b := testChannel(t, 8)
	pf, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, Payload: []byte("data")})
	if err != nil {
		t.Fatal(err)
	}
	pf.Ciphertext[0] ^= 0xff
	if _, err := b.Validate(pf); !errors.Is(err, ErrAuth) {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
	_, _, dropped := b.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestAddressSpoofRejected(t *testing.T) {
	a, b := testChannel(t, 8)
	pf, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, Payload: []byte("data")})
	if err != nil {
		t.Fatal(err)
	}
	pf.Dst = [6]byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01} // redirect attempt
	if _, err := b.Validate(pf); !errors.Is(err, ErrAuth) {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
}

func TestReplayRejected(t *testing.T) {
	a, b := testChannel(t, 8)
	pf, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, Payload: []byte("pay")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Validate(pf); err != nil {
		t.Fatalf("first Validate: %v", err)
	}
	if _, err := b.Validate(pf); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay err = %v, want ErrReplay", err)
	}
}

func TestReplayWindowAllowsReordering(t *testing.T) {
	a, b := testChannel(t, 4)
	var frames []*ProtectedFrame
	for i := 0; i < 5; i++ {
		pf, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, pf)
	}
	// Deliver out of order within window: 3, 2, 4, 1 (PNs 4,3,5,2).
	for _, i := range []int{3, 2, 4, 1} {
		if _, err := b.Validate(frames[i]); err != nil {
			t.Fatalf("Validate frame %d: %v", i, err)
		}
	}
	// Frame 0 (PN 1) is now below highest(5) - window(4) = 1, so rejected.
	if _, err := b.Validate(frames[0]); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale frame err = %v, want ErrReplay", err)
	}
}

func TestStrictOrderingWindowZero(t *testing.T) {
	a, b := testChannel(t, 0)
	pf1, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, Payload: []byte("1")})
	if err != nil {
		t.Fatal(err)
	}
	pf2, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, Payload: []byte("2")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Validate(pf2); err != nil {
		t.Fatalf("Validate pf2: %v", err)
	}
	if _, err := b.Validate(pf1); !errors.Is(err, ErrReplay) {
		t.Fatalf("out-of-order err = %v, want ErrReplay", err)
	}
}

func TestUnknownSARejected(t *testing.T) {
	a, b := testChannel(t, 8)
	pf, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	pf.AN = 3
	if _, err := b.Validate(pf); !errors.Is(err, ErrNoSA) {
		t.Fatalf("err = %v, want ErrNoSA", err)
	}
	if _, err := a.Protect(7, Frame{}); !errors.Is(err, ErrNoSA) {
		t.Fatalf("err = %v, want ErrNoSA", err)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	a := NewSecY("a")
	b := NewSecY("b")
	if err := a.InstallTxSA(0, tKey); err != nil {
		t.Fatal(err)
	}
	other := tKey
	other[0] ^= 1
	if err := b.InstallRxSA(0, other, 8); err != nil {
		t.Fatal(err)
	}
	pf, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Validate(pf); !errors.Is(err, ErrAuth) {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
}

func TestValidateNil(t *testing.T) {
	_, b := testChannel(t, 8)
	if _, err := b.Validate(nil); !errors.Is(err, ErrAuth) {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
}

func TestPacketNumbersMonotonic(t *testing.T) {
	a, _ := testChannel(t, 8)
	var last uint64
	for i := 0; i < 100; i++ {
		pf, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC})
		if err != nil {
			t.Fatal(err)
		}
		if pf.PN <= last {
			t.Fatalf("PN %d not monotonically increasing after %d", pf.PN, last)
		}
		last = pf.PN
	}
}

func TestStatsAccounting(t *testing.T) {
	a, b := testChannel(t, 8)
	for i := 0; i < 10; i++ {
		pf, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Validate(pf); err != nil {
			t.Fatal(err)
		}
	}
	protected, _, _ := a.Stats()
	_, validated, dropped := b.Stats()
	if protected != 10 || validated != 10 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d, want 10/10/0", protected, validated, dropped)
	}
}

// Property: any payload round-trips unchanged through protect/validate.
func TestRoundTripProperty(t *testing.T) {
	a, b := testChannel(t, 1<<20)
	f := func(payload []byte, etherID uint16) bool {
		pf, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, EtherID: etherID, Payload: payload})
		if err != nil {
			return false
		}
		out, err := b.Validate(pf)
		if err != nil {
			return false
		}
		return out.EtherID == etherID && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single ciphertext bit is always detected.
func TestBitFlipDetectedProperty(t *testing.T) {
	a, b := testChannel(t, 1<<20)
	f := func(payload []byte, bit uint) bool {
		pf, err := a.Protect(0, Frame{Src: srcMAC, Dst: dstMAC, Payload: payload})
		if err != nil {
			return false
		}
		idx := int(bit % uint(len(pf.Ciphertext)*8))
		pf.Ciphertext[idx/8] ^= 1 << (idx % 8)
		_, err = b.Validate(pf)
		return errors.Is(err, ErrAuth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func benchChannel(b *testing.B) (*SecY, *SecY) {
	b.Helper()
	a, z := NewSecY("a"), NewSecY("z")
	var key [32]byte
	key[0] = 1
	if _, err := NewChannel(a, z, key, 1<<30); err != nil {
		b.Fatal(err)
	}
	return a, z
}

// BenchmarkMACsecProtect: per-operation cost behind Lesson 2 (encryption).
func BenchmarkMACsecProtect(b *testing.B) {
	a, _ := benchChannel(b)
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Protect(0, Frame{Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMACsecProtectValidate: per-operation cost behind Lesson 2 (encryption).
func BenchmarkMACsecProtectValidate(b *testing.B) {
	a, z := benchChannel(b)
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pf, err := a.Protect(0, Frame{Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := z.Validate(pf); err != nil {
			b.Fatal(err)
		}
	}
}
