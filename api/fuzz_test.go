package api

import (
	"bytes"
	"encoding/json"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"genio/internal/orchestrator"
	"genio/internal/pki"
)

// FuzzWorkloadSpecToOrchestrator: the deploy body is untrusted input.
// Whatever JSON decodes into a WorkloadSpec either refuses conversion or
// yields a library spec the pipeline's accounting can trust: no negative
// demand, a known isolation mode, every other field carried verbatim.
func FuzzWorkloadSpecToOrchestrator(f *testing.F) {
	for _, seed := range []string{
		`{"name":"web","tenant":"acme","imageRef":"acme/analytics:2.0.1","isolation":"soft","resources":{"cpuMilli":500,"memoryMB":512}}`,
		`{"name":"neg","tenant":"acme","resources":{"cpuMilli":-100000,"memoryMB":-100000}}`,
		`{"name":"half","resources":{"cpuMilli":100,"memoryMB":-1}}`,
		`{"name":"zero","isolation":"hard","placementPolicy":"spread","region":"region-a"}`,
		`{"isolation":"quantum"}`,
		`{"resources":{"cpuMilli":9223372036854775807}}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ws WorkloadSpec
		if json.Unmarshal(data, &ws) != nil {
			return
		}
		spec, err := ws.ToOrchestrator()
		if err != nil {
			return
		}
		if spec.Resources.CPUMilli < 0 || spec.Resources.MemoryMB < 0 {
			t.Fatalf("negative demand converted: %+v", spec.Resources)
		}
		if spec.Isolation != orchestrator.IsolationSoft && spec.Isolation != orchestrator.IsolationHard {
			t.Fatalf("unknown isolation mode %v from %q", spec.Isolation, ws.Isolation)
		}
		if spec.Name != ws.Name || spec.Tenant != ws.Tenant || spec.ImageRef != ws.ImageRef ||
			spec.PlacementPolicy != ws.PlacementPolicy || spec.Region != ws.Region {
			t.Fatalf("fields lost: wire %+v -> lib %+v", ws, spec)
		}
	})
}

// FuzzVerify: every header, the request line and the body are untrusted
// input to Verifier.Verify. The seeds are the only two credentials in
// existence — one session-MACed request, one Ed25519-signed handshake —
// and the fuzzer mutates everything around them. Verify must never
// panic, and may name a subject only while the unmutated credential
// still covers the mutated request: same method, path, canonical query,
// date, nonce and body as the request it was minted for. The fixture is
// deterministic (seeded CA, fixed clock, fixed session secret) so a
// corpus entry means the same thing in every fuzz worker process.
func FuzzVerify(f *testing.F) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	ca, err := pki.NewCA("fuzz-ca", pki.WithRand(mrand.New(mrand.NewSource(22))), pki.WithClock(clock))
	if err != nil {
		f.Fatal(err)
	}
	id, err := ca.Issue("operator", pki.RoleService)
	if err != nil {
		f.Fatal(err)
	}
	grant := &SessionGrant{Token: "fuzz-session", Subject: "operator",
		Secret: bytes.Repeat([]byte{0x5a}, sessionSecretSize), ExpiresAt: now.Add(time.Minute)}
	// A fresh verifier per input: the nonce cache would otherwise turn
	// every rerun of a seed into a replay.
	newVerifier := func() *Verifier {
		v := NewVerifier(ca, WithVerifierClock(clock))
		v.sessions[grant.Token] = &sessionRecord{subject: grant.Subject,
			exp: grant.ExpiresAt, macs: newMACPool(grant.Secret)}
		v.sessOrder = []string{grant.Token}
		return v
	}

	// covered is what a credential was minted for.
	type covered struct{ method, path, query, date, nonce, body string }
	seed := func(method, target, nonce, body string, sign func(*http.Request) error) covered {
		req, err := http.NewRequest(method, "http://geniod"+target, strings.NewReader(body))
		if err != nil {
			f.Fatal(err)
		}
		date := now.Format(time.RFC3339)
		req.Header.Set(HeaderDate, date)
		req.Header.Set(HeaderNonce, nonce)
		if err := sign(req); err != nil {
			f.Fatal(err)
		}
		if _, err := newVerifier().Verify(req); err != nil {
			f.Fatalf("seed %s %s does not verify: %v", method, target, err)
		}
		f.Add(method, target, date, nonce, req.Header.Get(HeaderSession),
			req.Header.Get(HeaderCertificate), req.Header.Get(HeaderSignature), []byte(body))
		return covered{method, req.URL.Path, canonicalQuery(req.URL), date, nonce, body}
	}
	bySession := seed("POST", "/v2/deployments?dry=1&a=b", "nonce-session", `{"spec":{"name":"web"}}`,
		func(r *http.Request) error { return SignRequestSession(r, grant.Session()) })
	byHandshake := seed("POST", "/v2/session", "nonce-handshake", "",
		func(r *http.Request) error { return SignRequest(r, id) })

	f.Fuzz(func(t *testing.T, method, target, date, nonce, session, cert, sig string, body []byte) {
		u, err := url.ParseRequestURI(target)
		if err != nil {
			return
		}
		// net/http never hands a server a header value (or method) with a
		// line break in it.
		for _, v := range []string{method, date, nonce, session, cert, sig} {
			if strings.ContainsAny(v, "\r\n") {
				return
			}
		}
		req := &http.Request{Method: method, URL: u, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body))}
		for k, v := range map[string]string{HeaderDate: date, HeaderNonce: nonce,
			HeaderSession: session, HeaderCertificate: cert, HeaderSignature: sig} {
			if v != "" {
				req.Header.Set(k, v)
			}
		}
		subject, err := newVerifier().Verify(req)
		if err != nil {
			if subject != "" {
				t.Fatalf("subject %q returned with error %v", subject, err)
			}
			return
		}
		want := byHandshake
		if session != "" {
			want = bySession
		}
		got := covered{method, u.Path, canonicalQuery(u), date, nonce, string(body)}
		if subject != "operator" || got != want {
			t.Fatalf("accepted as %q a request its credential does not cover:\n got %+v\nwant %+v", subject, got, want)
		}
		if left, _ := io.ReadAll(req.Body); !bytes.Equal(left, body) {
			t.Fatalf("verification consumed the body: %q left of %q", left, body)
		}
	})
}

// FuzzDecodeWireError: an error body is untrusted input to the client.
// Whatever JSON decodes into a WireError, Decode must not panic, and
// the typed error it rebuilds must encode back to the same code — the
// wire code is the compatibility contract, so a round trip may not
// change an error's class.
func FuzzDecodeWireError(f *testing.F) {
	for _, seed := range []string{
		`{"code":"admission-denied","message":"m","workload":"w","tenant":"t","verdicts":[{"scanner":"sast","passed":false,"detail":"x"}]}`,
		`{"code":"image-pull","message":"pull r: image not signed","ref":"r","cause":"unsigned"}`,
		`{"code":"quota-exceeded","tenant":"t","requested":{"cpuMilli":1},"used":{},"quota":{"memoryMB":-1}}`,
		`{"code":"no-capacity","workload":"w","nodes":3}`,
		`{"code":"cancelled","workload":"w","stage":"scanning","cause":"deadline"}`,
		`{"code":"node-not-found","node":"n","cause":"core"}`,
		`{"code":"drain-blocked","node":"n","wrapped":{"code":"no-capacity","workload":"w"}}`,
		`{"code":"drain-blocked","node":"n","wrapped":{"code":"region-pinned","tenant":"t"}}`,
		`{"code":"federation-capacity","clusters":2,"wrapped":{"code":"federation-capacity","wrapped":{"code":"cancelled"}}}`,
		`{"code":"bad-request","workload":"w","requested":{"cpuMilli":-5}}`,
		`{"code":"platform-closed","op":"deploy"}`,
		`{"code":"session-expired","message":"expired"}`,
		`{"code":"no-such-code"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var we WireError
		if json.Unmarshal(data, &we) != nil {
			return
		}
		err := Decode(&we)
		if err == nil {
			t.Fatalf("Decode(%+v) = nil", we)
		}
		_ = err.Error()
		if _, known := httpStatus[we.Code]; !known {
			return
		}
		if got := Encode(err); got.Code != we.Code {
			t.Fatalf("code %q decoded to %T, which encodes as %q", we.Code, err, got.Code)
		}
	})
}
