package tpm

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
	"testing/quick"
)

func newTestTPM(t *testing.T) *TPM {
	t.Helper()
	tp, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tp
}

func TestExtendChangesPCR(t *testing.T) {
	tp := newTestTPM(t)
	before, err := tp.PCR(PCRKernel)
	if err != nil {
		t.Fatalf("PCR: %v", err)
	}
	after, err := tp.Extend(PCRKernel, "kernel", []byte("vmlinuz"))
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if before == after {
		t.Fatal("Extend did not change PCR value")
	}
	got, err := tp.PCR(PCRKernel)
	if err != nil {
		t.Fatalf("PCR: %v", err)
	}
	if got != after {
		t.Fatalf("PCR readback = %s, want %s", got, after)
	}
}

func TestExtendIsDeterministicAcrossTPMs(t *testing.T) {
	a := newTestTPM(t)
	b := newTestTPM(t)
	inputs := [][]byte{[]byte("shim"), []byte("grub"), []byte("kernel")}
	var da, db Digest
	var err error
	for _, in := range inputs {
		if da, err = a.Extend(PCRFirmware, "x", in); err != nil {
			t.Fatalf("Extend a: %v", err)
		}
		if db, err = b.Extend(PCRFirmware, "x", in); err != nil {
			t.Fatalf("Extend b: %v", err)
		}
	}
	if da != db {
		t.Fatalf("same extend sequence produced different PCRs: %s vs %s", da, db)
	}
}

func TestExtendOrderMatters(t *testing.T) {
	a := newTestTPM(t)
	b := newTestTPM(t)
	if _, err := a.Extend(0, "", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Extend(0, "", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Extend(0, "", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Extend(0, "", []byte("x")); err != nil {
		t.Fatal(err)
	}
	pa, _ := a.PCR(0)
	pb, _ := b.PCR(0)
	if pa == pb {
		t.Fatal("PCR extension must not be commutative")
	}
}

func TestExtendInvalidPCR(t *testing.T) {
	tp := newTestTPM(t)
	if _, err := tp.Extend(PCRCount, "", nil); !errors.Is(err, ErrInvalidPCR) {
		t.Fatalf("err = %v, want ErrInvalidPCR", err)
	}
	if _, err := tp.Extend(-1, "", nil); !errors.Is(err, ErrInvalidPCR) {
		t.Fatalf("err = %v, want ErrInvalidPCR", err)
	}
	if _, err := tp.PCR(99); !errors.Is(err, ErrInvalidPCR) {
		t.Fatalf("err = %v, want ErrInvalidPCR", err)
	}
}

func TestReplayLogMatchesPCRs(t *testing.T) {
	tp := newTestTPM(t)
	steps := []struct {
		pcr  int
		data string
	}{
		{PCRFirmware, "shim"},
		{PCRBootloader, "grub"},
		{PCRKernel, "vmlinuz"},
		{PCRKernel, "initrd"},
		{PCRConfig, "cmdline"},
	}
	for _, s := range steps {
		if _, err := tp.Extend(s.pcr, s.data, []byte(s.data)); err != nil {
			t.Fatalf("Extend: %v", err)
		}
	}
	replayed := ReplayLog(tp.log)
	for _, pcr := range []int{PCRFirmware, PCRBootloader, PCRKernel, PCRConfig} {
		want, _ := tp.PCR(pcr)
		if replayed[pcr] != want {
			t.Errorf("replay pcr %d = %s, want %s", pcr, replayed[pcr], want)
		}
	}
}

func TestQuoteVerifies(t *testing.T) {
	tp := newTestTPM(t)
	if _, err := tp.Extend(PCRKernel, "kernel", []byte("vmlinuz")); err != nil {
		t.Fatal(err)
	}
	nonce := []byte("verifier-nonce-123")
	q, err := tp.Quote([]int{PCRKernel, PCRConfig}, nonce)
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	want, _ := tp.PCR(PCRKernel)
	if err := VerifyQuote(tp.AttestationPublicKey(), q, map[int]Digest{PCRKernel: want}); err != nil {
		t.Fatalf("VerifyQuote: %v", err)
	}
}

func TestQuoteRejectsTamperedPCR(t *testing.T) {
	tp := newTestTPM(t)
	q, err := tp.Quote([]int{PCRKernel}, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	var forged Digest
	forged[0] = 0xff
	q.PCRs[PCRKernel] = forged
	if err := VerifyQuote(tp.AttestationPublicKey(), q, nil); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("err = %v, want ErrBadQuote", err)
	}
}

func TestQuoteRejectsWrongKey(t *testing.T) {
	tp := newTestTPM(t)
	other := newTestTPM(t)
	q, err := tp.Quote([]int{PCRKernel}, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(other.AttestationPublicKey(), q, nil); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("err = %v, want ErrBadQuote", err)
	}
}

func TestQuoteRejectsReplayedNonce(t *testing.T) {
	tp := newTestTPM(t)
	q, err := tp.Quote([]int{PCRKernel}, []byte("nonce-A"))
	if err != nil {
		t.Fatal(err)
	}
	// An attacker replays the quote but the verifier issued a new nonce:
	// the verifier checks q.Nonce, which no longer matches.
	if bytes.Equal(q.Nonce, []byte("nonce-B")) {
		t.Fatal("test setup broken")
	}
	q.Nonce = []byte("nonce-B") // forging the nonce invalidates the signature
	if err := VerifyQuote(tp.AttestationPublicKey(), q, nil); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("err = %v, want ErrBadQuote", err)
	}
}

func TestQuoteMissingExpectedPCR(t *testing.T) {
	tp := newTestTPM(t)
	q, err := tp.Quote([]int{PCRKernel}, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	err = VerifyQuote(tp.AttestationPublicKey(), q, map[int]Digest{PCRConfig: {}})
	if !errors.Is(err, ErrBadQuote) {
		t.Fatalf("err = %v, want ErrBadQuote", err)
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	tp := newTestTPM(t)
	if _, err := tp.Extend(PCRKernel, "kernel", []byte("good-kernel")); err != nil {
		t.Fatal(err)
	}
	secret := []byte("luks-master-key")
	blob, err := tp.Seal(secret, []int{PCRKernel})
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got, err := tp.Unseal(blob)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("Unseal = %q, want %q", got, secret)
	}
}

func TestUnsealFailsAfterPCRChange(t *testing.T) {
	tp := newTestTPM(t)
	if _, err := tp.Extend(PCRKernel, "kernel", []byte("good-kernel")); err != nil {
		t.Fatal(err)
	}
	blob, err := tp.Seal([]byte("secret"), []int{PCRKernel})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a tampered kernel being measured on next boot.
	if _, err := tp.Extend(PCRKernel, "kernel", []byte("evil-kernel")); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Unseal(blob); !errors.Is(err, ErrPolicyMismatch) {
		t.Fatalf("err = %v, want ErrPolicyMismatch", err)
	}
}

func TestUnsealIgnoresUnselectedPCRChanges(t *testing.T) {
	tp := newTestTPM(t)
	blob, err := tp.Seal([]byte("secret"), []int{PCRKernel})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Extend(PCRApp, "app", []byte("some-daemon")); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Unseal(blob); err != nil {
		t.Fatalf("Unseal after unrelated PCR change: %v", err)
	}
}

func TestUnsealRejectsTamperedCiphertext(t *testing.T) {
	tp := newTestTPM(t)
	blob, err := tp.Seal([]byte("secret"), []int{PCRKernel})
	if err != nil {
		t.Fatal(err)
	}
	blob.Ciphertext[0] ^= 0x01
	if _, err := tp.Unseal(blob); !errors.Is(err, ErrPolicyMismatch) {
		t.Fatalf("err = %v, want ErrPolicyMismatch", err)
	}
}

func TestUnsealNilBlob(t *testing.T) {
	tp := newTestTPM(t)
	if _, err := tp.Unseal(nil); err == nil {
		t.Fatal("Unseal(nil) succeeded")
	}
}

func TestSealInvalidPCRSelection(t *testing.T) {
	tp := newTestTPM(t)
	if _, err := tp.Seal([]byte("x"), []int{PCRCount + 1}); !errors.Is(err, ErrInvalidPCR) {
		t.Fatalf("err = %v, want ErrInvalidPCR", err)
	}
}

func TestNVStorage(t *testing.T) {
	tp := newTestTPM(t)
	if _, ok := tp.NVRead("missing"); ok {
		t.Fatal("NVRead of missing index reported ok")
	}
	tp.NVWrite("onie-trust-anchor", []byte("pubkey-bytes"))
	got, ok := tp.NVRead("onie-trust-anchor")
	if !ok || !bytes.Equal(got, []byte("pubkey-bytes")) {
		t.Fatalf("NVRead = %q, %v", got, ok)
	}
	// Mutating the returned slice must not affect stored state.
	got[0] = 'X'
	again, _ := tp.NVRead("onie-trust-anchor")
	if !bytes.Equal(again, []byte("pubkey-bytes")) {
		t.Fatal("NVRead returned aliased storage")
	}
}

// Property: extending with data d always yields H(prev || H(d)); the chain
// is reproducible from the event log regardless of the data content.
func TestExtendChainProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		tp, err := New()
		if err != nil {
			return false
		}
		var prev Digest
		for _, c := range chunks {
			got, err := tp.Extend(PCRApp, "prop", c)
			if err != nil {
				return false
			}
			m := sha256.Sum256(c)
			h := sha256.New()
			h.Write(prev[:])
			h.Write(m[:])
			var want Digest
			copy(want[:], h.Sum(nil))
			if got != want {
				return false
			}
			prev = got
		}
		replay := ReplayLog(tp.log)
		if len(chunks) == 0 {
			return len(replay) == 0
		}
		return replay[PCRApp] == prev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: seal/unseal round-trips arbitrary secrets while PCR state is
// unchanged.
func TestSealRoundTripProperty(t *testing.T) {
	tp := newTestTPM(t)
	f := func(secret []byte) bool {
		blob, err := tp.Seal(secret, []int{PCRKernel, PCRConfig})
		if err != nil {
			return false
		}
		got, err := tp.Unseal(blob)
		if err != nil {
			return false
		}
		return bytes.Equal(got, secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTPMExtend: per-operation cost of the M5/M6 substrate.
func BenchmarkTPMExtend(b *testing.B) {
	t, err := New()
	if err != nil {
		b.Fatal(err)
	}
	data := []byte("component-image")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := t.Extend(PCRApp, "bench", data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPMSealUnseal: per-operation cost of the M5/M6 substrate.
func BenchmarkTPMSealUnseal(b *testing.B) {
	t, err := New()
	if err != nil {
		b.Fatal(err)
	}
	secret := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob, err := t.Seal(secret, []int{PCRKernel})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := t.Unseal(blob); err != nil {
			b.Fatal(err)
		}
	}
}
