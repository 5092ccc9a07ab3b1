package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genio/api"
	"genio/api/client"
	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/orchestrator"
	"genio/internal/persist"
	"genio/internal/pki"
	"genio/internal/rbac"
)

// testPlatform builds the standard secure fixture: two nodes, a trusted
// publisher with the signed image set plus one unsigned hostile image,
// and an all-powerful operator role.
func testPlatform(t *testing.T) *core.Platform {
	t.Helper()
	p, err := core.New(core.SecureConfig())
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	t.Cleanup(p.Close)
	for _, node := range []string{"olt-01", "olt-02"} {
		if _, err := p.AddEdgeNode(node, orchestrator.Resources{CPUMilli: 16000, MemoryMB: 32768}); err != nil {
			t.Fatalf("node %s: %v", node, err)
		}
	}
	pub, err := container.NewPublisher("acme")
	if err != nil {
		t.Fatalf("publisher: %v", err)
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	for _, img := range []*container.Image{
		container.AnalyticsImage(),
		container.IoTGatewayImage(),
		container.MLInferenceImage(),
		container.CryptominerImage(),
	} {
		sig := pub.Sign(img)
		p.Registry.Push(img, &sig)
	}
	p.Registry.Push(container.BackdoorImage(), nil) // unsigned
	p.RBAC.SetRole(rbac.Role{Name: "operator", Permissions: []rbac.Permission{
		{Verb: "*", Resource: "*", Namespace: "*"},
	}})
	if err := p.RBAC.Bind("operator", "operator"); err != nil {
		t.Fatalf("bind: %v", err)
	}
	// Roomy quota so capacity, not quota, is the binding constraint.
	p.Cluster.SetQuota("acme", orchestrator.Resources{CPUMilli: 1 << 30, MemoryMB: 1 << 30})
	return p
}

// testServer hosts the platform behind httptest and returns an
// authenticated remote client for subject "operator".
func testServer(t *testing.T, p *core.Platform) (*Server, *httptest.Server, *client.HTTP) {
	t.Helper()
	srv := New(p, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue identity: %v", err)
	}
	c := client.NewHTTP(ts.URL, client.WithIdentity(id),
		client.WithBackoff(5*time.Millisecond, 50*time.Millisecond))
	t.Cleanup(func() { _ = c.Close() })
	return srv, ts, c
}

// handshake runs the Ed25519 session handshake by hand, for tests that
// craft raw requests instead of going through client.HTTP.
func handshake(t *testing.T, baseURL string, id *pki.Identity) *api.Session {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v2/session", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.SignRequest(req, id); err != nil {
		t.Fatalf("sign handshake: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer resp.Body.Close()
	var grant api.SessionGrant
	if resp.StatusCode != http.StatusCreated || json.NewDecoder(resp.Body).Decode(&grant) != nil {
		t.Fatalf("handshake status = %d, want 201 with a grant", resp.StatusCode)
	}
	return grant.Session()
}

// wireStatus sends a raw request and returns its status and, for an
// error status, the wire error code.
func wireStatus(t *testing.T, req *http.Request) (int, string) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	var we api.WireError
	if resp.StatusCode >= 400 {
		_ = json.NewDecoder(resp.Body).Decode(&we)
	}
	return resp.StatusCode, we.Code
}

func spec(name, ref string, cpu, mem int) api.WorkloadSpec {
	return api.WorkloadSpec{
		Name: name, Tenant: "acme", ImageRef: ref, Isolation: api.IsolationSoft,
		Resources: api.Resources{CPUMilli: cpu, MemoryMB: mem},
	}
}

// TestE2EOverHTTP drives the acceptance path entirely over the wire:
// deploy (sync + async), lifecycle watch, drain, failover.
func TestE2EOverHTTP(t *testing.T) {
	p := testPlatform(t)
	_, _, c := testServer(t, p)
	ctx := context.Background()

	// Watch first, so every lifecycle transition of the async deploy is
	// observed through the SSE stream.
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	eventsCh, err := c.Watch(watchCtx, api.WatchSelector{Tenant: "acme"})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}

	// Sync deploy.
	wl, err := c.Deploy(ctx, spec("web", "acme/analytics:2.0.1", 500, 512))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if wl.Node == "" || wl.VMID == "" {
		t.Fatalf("placement incomplete: %+v", wl)
	}

	// Async deploy through the future endpoints.
	d, err := c.DeployAsync(ctx, spec("api", "acme/analytics:2.0.1", 400, 256))
	if err != nil {
		t.Fatalf("deploy async: %v", err)
	}
	if d.ID() == "" {
		t.Fatal("async deploy has no ID")
	}
	placed, err := d.Await(ctx)
	if err != nil {
		t.Fatalf("await: %v", err)
	}
	if placed == nil || placed.Node == "" {
		t.Fatalf("await returned no placement: %+v", placed)
	}
	st, err := d.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.State != string(core.StateRunning) || st.Placed == nil {
		t.Fatalf("status = %+v, want running with placement", st)
	}

	// The watch stream must deliver the async deploy's full lifecycle.
	seen := map[string]bool{}
	deadline := time.After(5 * time.Second)
	for !seen["running"] {
		select {
		case ev, ok := <-eventsCh:
			if !ok {
				t.Fatal("watch stream closed early")
			}
			if ev.Workload == "api" {
				seen[ev.State] = true
			}
		case <-deadline:
			t.Fatalf("timed out waiting for lifecycle events; saw %v", seen)
		}
	}
	for _, want := range []string{"pending", "scanning", "placing", "running"} {
		if !seen[want] {
			t.Errorf("lifecycle state %q never seen on the wire", want)
		}
	}

	// Drain the hot node over HTTP; binpack stacked both workloads.
	hot := wl.Node
	res, err := c.Drain(ctx, hot)
	if err != nil {
		t.Fatalf("drain %s: %v", hot, err)
	}
	if len(res.Migrated) == 0 {
		t.Fatalf("drain migrated nothing: %+v", res)
	}

	// Fail the node the workloads migrated to; they must reschedule
	// back onto the (still cordoned? no — drain cordons the source) —
	// uncordon the drained node first so failover has a target.
	if err := c.Uncordon(ctx, hot); err != nil {
		t.Fatalf("uncordon: %v", err)
	}
	other := "olt-02"
	if hot == "olt-02" {
		other = "olt-01"
	}
	fo, err := c.FailNode(ctx, other)
	if err != nil {
		t.Fatalf("fail %s: %v", other, err)
	}
	if len(fo.Rescheduled) == 0 {
		t.Fatalf("failover rescheduled nothing: %+v", fo)
	}

	// Fleet table reflects the failure: one node left.
	nodes, err := c.Nodes(ctx, &api.Resources{CPUMilli: 500, MemoryMB: 512}, "")
	if err != nil {
		t.Fatalf("nodes: %v", err)
	}
	if len(nodes) != 1 || nodes[0].Node != hot {
		t.Fatalf("nodes = %+v, want only %s", nodes, hot)
	}
	if nodes[0].Binpack == nil || nodes[0].Spread == nil {
		t.Fatalf("probe scores missing: %+v", nodes[0])
	}

	// Ledger and incidents read back over the wire.
	ledger, err := c.Ledger(ctx)
	if err != nil {
		t.Fatalf("ledger: %v", err)
	}
	if ledger[string(events.TopicDeployLifecycle)].Published == 0 {
		t.Fatalf("ledger shows no lifecycle publishes: %+v", ledger)
	}
	if _, err := c.Incidents(ctx); err != nil {
		t.Fatalf("incidents: %v", err)
	}
}

// TestTypedErrorsOverTheWire asserts the deploy rejection paths produce
// decodable typed errors through a real server round trip.
func TestTypedErrorsOverTheWire(t *testing.T) {
	p := testPlatform(t)
	_, _, c := testServer(t, p)
	ctx := context.Background()

	cases := []struct {
		name  string
		spec  api.WorkloadSpec
		check func(t *testing.T, err error)
	}{
		{
			name: "admission",
			spec: spec("miner", "freestuff/optimizer:latest", 100, 128),
			check: func(t *testing.T, err error) {
				var ae *orchestrator.AdmissionError
				if !errors.As(err, &ae) || len(ae.Verdicts) == 0 {
					t.Fatalf("err = %v, want AdmissionError with verdicts", err)
				}
				if !errors.Is(err, orchestrator.ErrDenied) || !errors.Is(err, orchestrator.ErrRejected) {
					t.Fatalf("sentinels lost: %v", err)
				}
			},
		},
		{
			name: "unsigned",
			spec: spec("backdoor", "freestuff/log-shipper:3.1", 100, 128),
			check: func(t *testing.T, err error) {
				if !errors.Is(err, container.ErrUnsigned) {
					t.Fatalf("err = %v, want ErrUnsigned", err)
				}
			},
		},
		{
			name: "not-found",
			spec: spec("ghost", "nobody/none:0", 100, 128),
			check: func(t *testing.T, err error) {
				if !errors.Is(err, container.ErrNotFound) {
					t.Fatalf("err = %v, want ErrNotFound", err)
				}
			},
		},
		{
			name: "capacity",
			spec: spec("huge", "acme/analytics:2.0.1", 1_000_000, 1),
			check: func(t *testing.T, err error) {
				var ce *orchestrator.CapacityError
				if !errors.As(err, &ce) || ce.Nodes != 2 {
					t.Fatalf("err = %v, want CapacityError across 2 nodes", err)
				}
			},
		},
		{
			name: "policy",
			spec: api.WorkloadSpec{Name: "typo", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
				Isolation: api.IsolationSoft, Resources: api.Resources{CPUMilli: 100, MemoryMB: 128},
				PlacementPolicy: "tightpack"},
			check: func(t *testing.T, err error) {
				var pe *orchestrator.PlacementPolicyError
				if !errors.As(err, &pe) || pe.Policy != "tightpack" {
					t.Fatalf("err = %v, want PlacementPolicyError", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Deploy(ctx, tc.spec)
			if err == nil {
				t.Fatal("deploy unexpectedly succeeded")
			}
			tc.check(t, err)
		})
	}

	// Duplicate name: deploy once, then collide.
	if _, err := c.Deploy(ctx, spec("dup", "acme/analytics:2.0.1", 100, 128)); err != nil {
		t.Fatalf("first deploy: %v", err)
	}
	_, err := c.Deploy(ctx, spec("dup", "acme/analytics:2.0.1", 100, 128))
	if !errors.Is(err, orchestrator.ErrDuplicateName) {
		t.Fatalf("err = %v, want ErrDuplicateName", err)
	}

	// Unknown node over the wire.
	_, err = c.Drain(ctx, "olt-ghost")
	if !errors.Is(err, orchestrator.ErrNodeUnknown) {
		t.Fatalf("drain err = %v, want ErrNodeUnknown", err)
	}
	var nfe *orchestrator.NodeNotFoundError
	if !errors.As(err, &nfe) || nfe.Node != "olt-ghost" {
		t.Fatalf("drain err = %v, want NodeNotFoundError", err)
	}

	// RBAC: an unbound subject is refused with a typed error.
	id, err := p.CA.Issue("mallory", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	ts := httptest.NewServer(New(p, Options{}).Handler())
	defer ts.Close()
	mc := client.NewHTTP(ts.URL, client.WithIdentity(id))
	_, err = mc.Deploy(ctx, spec("intrusion", "acme/analytics:2.0.1", 100, 128))
	if !errors.Is(err, orchestrator.ErrUnauthorized) {
		t.Fatalf("err = %v, want ErrUnauthorized", err)
	}
	if _, err := mc.Nodes(ctx, nil, ""); !errors.Is(err, orchestrator.ErrUnauthorized) {
		t.Fatalf("nodes err = %v, want ErrUnauthorized", err)
	}
}

// TestAuthRequired asserts the secure posture refuses unauthenticated
// requests with 401 and does not fall back to anonymous.
func TestAuthRequired(t *testing.T) {
	p := testPlatform(t)
	_, ts, _ := testServer(t, p)
	resp, err := http.Get(ts.URL + "/v2/nodes")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
	var we api.WireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Code != api.CodeUnauthenticated {
		t.Fatalf("body = %+v (%v), want code %s", we, err, api.CodeUnauthenticated)
	}
	// Health stays open for probes.
	hr, err := http.Get(ts.URL + "/v2/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", hr.StatusCode)
	}
}

// TestAnonymousModeUsesSubjectHeader covers the legacy posture: no
// certificate, subject taken from the header.
func TestAnonymousModeUsesSubjectHeader(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{AllowAnonymous: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.NewHTTP(ts.URL, client.WithSubject("operator"))
	if _, err := c.Deploy(context.Background(), spec("anon", "acme/analytics:2.0.1", 100, 128)); err != nil {
		t.Fatalf("deploy as header subject: %v", err)
	}
}

// TestPresentedCredentialNeverDemotedToAnonymous: on a server that
// allows anonymous callers, a request that presents a credential of
// either kind is verified. A handshaken identity acts as its
// certificate's subject (RBAC binds "operator", not "anonymous"), and a
// bogus, expired or misplaced credential is a 401 — never the anonymous
// subject, whose answer here would be 403 or, worse, 200.
func TestPresentedCredentialNeverDemotedToAnonymous(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{AllowAnonymous: true, SessionTTL: 50 * time.Millisecond})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}

	c := client.NewHTTP(ts.URL, client.WithIdentity(id))
	t.Cleanup(func() { _ = c.Close() })
	wl, err := c.Deploy(context.Background(), spec("as-operator", "acme/analytics:2.0.1", 100, 128))
	if err != nil {
		t.Fatalf("deploy as a handshaken identity on an anonymous-allowing server: %v", err)
	}
	if wl.Node == "" {
		t.Fatalf("thin workload: %+v", wl)
	}

	get := func(mutate func(*http.Request)) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/nodes", nil)
		mutate(req)
		return wireStatus(t, req)
	}
	sess := handshake(t, ts.URL, id)
	for name, tc := range map[string]struct {
		mutate func(*http.Request)
		code   string
	}{
		"bogus certificate": {func(r *http.Request) {
			r.Header.Set(api.HeaderCertificate, "bm90LWEtY2VydA==")
			r.Header.Set(api.HeaderSignature, "AAAA")
		}, api.CodeUnauthenticated},
		"valid certificate signature off the handshake route": {func(r *http.Request) {
			if err := api.SignRequest(r, id); err != nil {
				t.Fatal(err)
			}
		}, api.CodeUnauthenticated},
		"bare signature": {func(r *http.Request) {
			r.Header.Set(api.HeaderSignature, "AAAA")
		}, api.CodeUnauthenticated},
		"unknown session token": {func(r *http.Request) {
			if err := api.SignRequestSession(r, sess); err != nil {
				t.Fatal(err)
			}
			r.Header.Set(api.HeaderSession, "no-such-session")
		}, api.CodeSessionExpired},
		"session token without a MAC": {func(r *http.Request) {
			r.Header.Set(api.HeaderSession, sess.Token)
			r.Header.Set(api.HeaderSubject, "operator")
		}, api.CodeUnauthenticated},
		"forged MAC on a live session": {func(r *http.Request) {
			if err := api.SignRequestSession(r, sess); err != nil {
				t.Fatal(err)
			}
			r.Header.Set(api.HeaderSignature, "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA=")
		}, api.CodeUnauthenticated},
	} {
		if status, code := get(tc.mutate); status != http.StatusUnauthorized || code != tc.code {
			t.Errorf("%s: status=%d code=%q, want 401 %q", name, status, code, tc.code)
		}
	}
	// The session itself still works, until its TTL runs out.
	if status, code := get(func(r *http.Request) { _ = api.SignRequestSession(r, sess) }); status != http.StatusOK {
		t.Fatalf("live session: status=%d code=%q, want 200", status, code)
	}
	time.Sleep(80 * time.Millisecond)
	if status, code := get(func(r *http.Request) { _ = api.SignRequestSession(r, sess) }); status != http.StatusUnauthorized || code != api.CodeSessionExpired {
		t.Fatalf("expired session: status=%d code=%q, want 401 %q", status, code, api.CodeSessionExpired)
	}
}

// TestCertificateSignatureOnlyOnHandshakeRoute walks the route table New
// registers and sends every route a VALID per-request Ed25519-signed
// request — the credential the wire accepted everywhere before sessions
// were the only steady state. It opens the handshake (201) and nothing
// else: every other authenticated route answers 401 without entering its
// handler, so a route added to the table later cannot forget the rule.
func TestCertificateSignatureOnlyOnHandshakeRoute(t *testing.T) {
	p := testPlatform(t)
	var (
		mu    sync.Mutex
		count = make(map[string]int)
	)
	entered := func(pattern string) int {
		mu.Lock()
		defer mu.Unlock()
		return count[pattern]
	}
	spied := make([]route, len(routes))
	for i, rt := range routes {
		spied[i] = rt
		spied[i].handler = func(s *Server, w http.ResponseWriter, r *http.Request, subject string) {
			mu.Lock()
			count[rt.pattern]++
			mu.Unlock()
			rt.handler(s, w, r, subject)
		}
	}
	orig := routes
	routes = spied
	srv := New(p, Options{})
	routes = orig
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}

	var acceptCertificate []string
	for _, rt := range orig {
		method, path, _ := strings.Cut(rt.pattern, " ")
		path = strings.NewReplacer("{id}", "x", "{name}", "x").Replace(path)
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if err := api.SignRequest(req, id); err != nil {
			t.Fatalf("sign: %v", err)
		}
		status, code := wireStatus(t, req)
		switch rt.accepts {
		case credNone:
			if status != http.StatusOK || entered(rt.pattern) != 1 {
				t.Errorf("%s: status=%d entered=%d, want an open 200", rt.pattern, status, entered(rt.pattern))
			}
		case credCertificate:
			acceptCertificate = append(acceptCertificate, rt.pattern)
			if status != http.StatusCreated || entered(rt.pattern) != 1 {
				t.Errorf("%s: status=%d entered=%d, want 201 from the handshake", rt.pattern, status, entered(rt.pattern))
			}
		default:
			if status != http.StatusUnauthorized || code != api.CodeUnauthenticated || entered(rt.pattern) != 0 {
				t.Errorf("%s: status=%d code=%q entered=%d, want 401 %q and the handler never entered",
					rt.pattern, status, code, entered(rt.pattern), api.CodeUnauthenticated)
			}
		}
	}
	if len(acceptCertificate) != 1 || acceptCertificate[0] != "POST /v2/session" {
		t.Fatalf("routes accepting a certificate signature = %v, want exactly POST /v2/session", acceptCertificate)
	}
	if len(p.Cluster.Workloads()) != 0 {
		t.Fatalf("refused requests placed workloads: %v", p.Cluster.Workloads())
	}
}

// TestClientDisconnectCancelsSyncDeploy verifies the
// cancelled-never-placed invariant path over the wire: a sync deploy
// whose client vanishes mid-admission is cancelled by the server and
// rolled back, leaving no workload behind.
func TestClientDisconnectCancelsSyncDeploy(t *testing.T) {
	p := testPlatform(t)

	// Gate admission so the deploy is provably in-flight when the
	// client disconnects.
	entered := make(chan struct{}, 1)
	p.Cluster.RegisterAdmissionCtx("test-gate",
		func(ctx context.Context, s orchestrator.WorkloadSpec, _ *container.Image) error {
			if s.Name != "doomed" {
				return nil
			}
			entered <- struct{}{}
			<-ctx.Done()
			return ctx.Err()
		})
	_, _, c := testServer(t, p)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Deploy(ctx, spec("doomed", "acme/analytics:2.0.1", 100, 128))
		errCh <- err
	}()
	<-entered // the pipeline holds the deploy inside admission
	cancel()  // client disconnects; server ctx dies with the request

	err := <-errCh
	if err == nil {
		t.Fatal("deploy survived client disconnect")
	}
	// Cancelled-never-placed: the workload must not exist.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := p.Cluster.Workload("doomed"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled workload still placed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var ce *orchestrator.CancelledError
	if !errors.As(err, &ce) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want cancellation", err)
	}
}

// TestAsyncCancelOverWire cancels an in-flight async deployment through
// DELETE and asserts the terminal state decodes to a CancelledError.
func TestAsyncCancelOverWire(t *testing.T) {
	p := testPlatform(t)
	entered := make(chan struct{}, 1)
	p.Cluster.RegisterAdmissionCtx("test-gate",
		func(ctx context.Context, s orchestrator.WorkloadSpec, _ *container.Image) error {
			if s.Name != "held" {
				return nil
			}
			entered <- struct{}{}
			<-ctx.Done()
			return ctx.Err()
		})
	_, _, c := testServer(t, p)
	ctx := context.Background()

	d, err := c.DeployAsync(ctx, spec("held", "acme/analytics:2.0.1", 100, 128))
	if err != nil {
		t.Fatalf("deploy async: %v", err)
	}
	<-entered
	if err := d.Cancel(ctx); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	_, err = d.Await(ctx)
	if !errors.Is(err, orchestrator.ErrCancelled) {
		t.Fatalf("await err = %v, want ErrCancelled", err)
	}
	var ce *orchestrator.CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("await err = %v, want CancelledError", err)
	}
	if _, ok := p.Cluster.Workload("held"); ok {
		t.Fatal("cancelled workload was placed")
	}
}

// TestWatchReconnectAfterKilledStream is the SSE regression test: a
// proxy kills the stream mid-flight; the client must reconnect with
// backoff and keep delivering filtered events.
func TestWatchReconnectAfterKilledStream(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{})

	// killerProxy fronts the real handler and hard-closes the first
	// watch connection after its first event.
	var mu sync.Mutex
	kills := 0
	proxy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/watch" {
			srv.Handler().ServeHTTP(w, r)
			return
		}
		mu.Lock()
		shouldKill := kills == 0
		kills++
		mu.Unlock()
		if !shouldKill {
			srv.Handler().ServeHTTP(w, r)
			return
		}
		// Serve the stream but slam the TCP connection after the first
		// event flushes.
		rc := http.NewResponseController(w)
		kw := &killAfterFirstEvent{w: w, rc: rc}
		srv.Handler().ServeHTTP(kw, r)
	})
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	c := client.NewHTTP(ts.URL, client.WithIdentity(id),
		client.WithBackoff(5*time.Millisecond, 50*time.Millisecond))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Terminal-only filter: it must still hold after the reconnect.
	eventsCh, err := c.Watch(ctx, api.WatchSelector{Tenant: "acme", TerminalOnly: true})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}

	// First deploy (async, so it emits lifecycle events): its terminal
	// event rides the doomed connection.
	deployAsync := func(name string) {
		t.Helper()
		d, err := c.DeployAsync(ctx, spec(name, "acme/analytics:2.0.1", 100, 128))
		if err != nil {
			t.Fatalf("deploy async %s: %v", name, err)
		}
		if _, err := d.Await(ctx); err != nil {
			t.Fatalf("await %s: %v", name, err)
		}
	}
	deployAsync("before-kill")
	var got []api.LifecycleEvent
	select {
	case ev := <-eventsCh:
		got = append(got, ev)
	case <-time.After(5 * time.Second):
		t.Fatal("no event before the kill")
	}

	// Give the client time to notice the kill and reconnect, then
	// deploy again: the event must arrive on the new connection.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		reconnected := kills >= 2
		mu.Unlock()
		if reconnected {
			break
		}
		select {
		case <-deadline:
			t.Fatal("client never reconnected")
		case <-time.After(5 * time.Millisecond):
		}
	}
	deployAsync("after-kill")
	select {
	case ev := <-eventsCh:
		got = append(got, ev)
	case <-time.After(5 * time.Second):
		t.Fatal("no event after reconnect")
	}
	for _, ev := range got {
		if !ev.Terminal() {
			t.Fatalf("terminal-only filter leaked %+v", ev)
		}
	}
	names := map[string]bool{}
	for _, ev := range got {
		names[ev.Workload] = true
	}
	if !names["before-kill"] || !names["after-kill"] {
		t.Fatalf("events lost across reconnect: %v", names)
	}
}

// killAfterFirstEvent lets one SSE event through, then severs the
// underlying connection.
type killAfterFirstEvent struct {
	w      http.ResponseWriter
	rc     *http.ResponseController
	events int
	dead   bool
}

func (k *killAfterFirstEvent) Header() http.Header { return k.w.Header() }

func (k *killAfterFirstEvent) WriteHeader(code int) { k.w.WriteHeader(code) }

func (k *killAfterFirstEvent) Write(b []byte) (int, error) {
	if k.dead {
		return 0, fmt.Errorf("connection killed")
	}
	n, err := k.w.Write(b)
	if bytes.Contains(b, []byte("data: ")) { // one event frame
		k.events++
	}
	return n, err
}

func (k *killAfterFirstEvent) Flush() {
	if k.dead {
		return
	}
	_ = k.rc.Flush()
	if k.events >= 1 {
		k.dead = true
		conn, _, err := k.rc.Hijack()
		if err == nil {
			_ = conn.Close()
		}
	}
}

// TestDeploymentEndpointsEnforceOwnership: async deployment status,
// await, and cancel are reachable by their creator and by subjects the
// RBAC table allows — not by any authenticated stranger holding the ID.
func TestDeploymentEndpointsEnforceOwnership(t *testing.T) {
	p := testPlatform(t)
	_, ts, c := testServer(t, p)
	ctx := context.Background()

	d, err := c.DeployAsync(ctx, spec("owned", "acme/analytics:2.0.1", 100, 128))
	if err != nil {
		t.Fatalf("deploy async: %v", err)
	}
	if _, err := d.Await(ctx); err != nil {
		t.Fatalf("await: %v", err)
	}
	// IDs must be unguessable, not sequential.
	if d.ID() == "d-1" || len(d.ID()) < 10 {
		t.Fatalf("deployment id %q looks enumerable", d.ID())
	}

	// mallory authenticates fine (valid cert) but has no RBAC grants and
	// did not create the deployment: status and cancel are refused.
	mid, err := p.CA.Issue("mallory", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	mc := client.NewHTTP(ts.URL, client.WithIdentity(mid))
	t.Cleanup(func() { _ = mc.Close() })
	md := remoteHandle(t, mc, d.ID())
	if _, err := md.Status(ctx); !errors.Is(err, orchestrator.ErrUnauthorized) {
		t.Fatalf("stranger status err = %v, want ErrUnauthorized", err)
	}
	if err := md.Cancel(ctx); !errors.Is(err, orchestrator.ErrUnauthorized) {
		t.Fatalf("stranger cancel err = %v, want ErrUnauthorized", err)
	}

	// An RBAC-privileged subject (bound to the wildcard operator role)
	// may inspect deployments it did not create.
	if err := p.RBAC.Bind("admin", "operator"); err != nil {
		t.Fatalf("bind: %v", err)
	}
	aid, err := p.CA.Issue("admin", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	ac := client.NewHTTP(ts.URL, client.WithIdentity(aid))
	t.Cleanup(func() { _ = ac.Close() })
	if _, err := remoteHandle(t, ac, d.ID()).Status(ctx); err != nil {
		t.Fatalf("admin status: %v", err)
	}

	// The owner, of course, still can.
	if st, err := d.Status(ctx); err != nil || st.State != string(core.StateRunning) {
		t.Fatalf("owner status: %+v / %v", st, err)
	}
}

// remoteHandle rebuilds a Deployment handle for an existing server-side
// ID on another client — the "stranger who learned the ID" scenario.
func remoteHandle(t *testing.T, c *client.HTTP, id string) client.Deployment {
	t.Helper()
	return c.Deployment(id)
}

// TestTerminalDeploymentEviction: the async registry retains only the
// configured number of completed deployments.
func TestTerminalDeploymentEviction(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{})
	srv.retention = 2
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	c := client.NewHTTP(ts.URL, client.WithIdentity(id))
	t.Cleanup(func() { _ = c.Close() })
	ctx := context.Background()

	var handles []client.Deployment
	for i := 0; i < 3; i++ {
		d, err := c.DeployAsync(ctx, spec(fmt.Sprintf("evict-%d", i), "acme/analytics:2.0.1", 100, 128))
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
		if _, err := d.Await(ctx); err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
		handles = append(handles, d)
	}
	// Retirement runs just after the future settles; poll for the oldest
	// entry to fall out.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := handles[0].Status(ctx)
		var we *api.WireError
		if errors.As(err, &we) && we.Code == api.CodeBadRequest {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oldest terminal deployment never evicted (err = %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The newest two stay pollable.
	for i := 1; i < 3; i++ {
		if _, err := handles[i].Status(ctx); err != nil {
			t.Fatalf("deployment %d evicted too early: %v", i, err)
		}
	}
}

// TestWatchResumeReplaysMissedEvents: events published while the client
// is disconnected must still arrive — the reconnect presents
// Last-Event-ID and the server replays from its buffer.
func TestWatchResumeReplaysMissedEvents(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{})

	// The proxy moves through three modes for /v2/watch connections:
	// 0 = serve but kill after the first event; 1 = refuse outright
	// (transport error, client keeps retrying); 2 = pass through.
	var mu sync.Mutex
	mode := 0
	setMode := func(m int) { mu.Lock(); mode = m; mu.Unlock() }
	proxy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/watch" {
			srv.Handler().ServeHTTP(w, r)
			return
		}
		mu.Lock()
		m := mode
		mu.Unlock()
		switch m {
		case 0:
			rc := http.NewResponseController(w)
			srv.Handler().ServeHTTP(&killAfterFirstEvent{w: w, rc: rc}, r)
		case 1:
			conn, _, err := http.NewResponseController(w).Hijack()
			if err == nil {
				_ = conn.Close()
			}
		default:
			srv.Handler().ServeHTTP(w, r)
		}
	})
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	c := client.NewHTTP(ts.URL, client.WithIdentity(id),
		client.WithBackoff(5*time.Millisecond, 20*time.Millisecond))
	t.Cleanup(func() { _ = c.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eventsCh, err := c.Watch(ctx, api.WatchSelector{Tenant: "acme", TerminalOnly: true})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}

	deployAsync := func(name string) {
		t.Helper()
		d, err := c.DeployAsync(ctx, spec(name, "acme/analytics:2.0.1", 100, 128))
		if err != nil {
			t.Fatalf("deploy async %s: %v", name, err)
		}
		if _, err := d.Await(ctx); err != nil {
			t.Fatalf("await %s: %v", name, err)
		}
	}

	// First event rides the doomed connection; receiving it records its
	// id client-side, and flushing it kills the connection.
	deployAsync("before-gap")
	select {
	case ev := <-eventsCh:
		if ev.Workload != "before-gap" {
			t.Fatalf("unexpected first event: %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event before the gap")
	}

	// Hold the client out while the next deployment completes: its
	// terminal event lands only in the server's replay buffer.
	setMode(1)
	deployAsync("during-gap")
	setMode(2)

	// The reconnect must resume from Last-Event-ID and replay the missed
	// terminal event, still honouring the terminal-only filter.
	select {
	case ev, ok := <-eventsCh:
		if !ok {
			t.Fatal("watch stream closed instead of resuming")
		}
		if ev.Workload != "during-gap" || !ev.Terminal() {
			t.Fatalf("resumed event = %+v, want during-gap terminal", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event published during disconnect was never replayed")
	}
}

// TestWatchRejectsMalformedLastEventID: a resume the server cannot parse
// is a 400, never a silent fresh watch that drops what the client missed.
func TestWatchRejectsMalformedLastEventID(t *testing.T) {
	p := testPlatform(t)
	ts := httptest.NewServer(New(p, Options{AllowAnonymous: true}).Handler())
	t.Cleanup(ts.Close)
	for _, tc := range []struct {
		name, header string
		status       int
	}{
		{"absent", "", http.StatusOK},
		{"valid", "0", http.StatusOK},
		{"non-numeric", "abc", http.StatusBadRequest},
		{"negative", "-3", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel() // ends the accepted streams
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v2/watch", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(api.HeaderSubject, "operator")
			if tc.header != "" {
				req.Header.Set("Last-Event-ID", tc.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.status != http.StatusOK {
				var we api.WireError
				if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Code != api.CodeBadRequest {
					t.Fatalf("error body = %+v (%v), want %s", we, err, api.CodeBadRequest)
				}
			}
		})
	}
}

// TestWatchStreamEndsWhenPlatformCloses: closing the platform — without
// closing the server — ends every open SSE stream after the events
// already published, and leaves no event-log feeder behind.
func TestWatchStreamEndsWhenPlatformCloses(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{AllowAnonymous: true})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v2/watch?terminal=true", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.HeaderSubject, "operator")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status = %d", resp.StatusCode)
	}
	c := client.NewHTTP(ts.URL, client.WithSubject("operator"))
	t.Cleanup(func() { _ = c.Close() })
	d, err := c.DeployAsync(context.Background(), spec("last-words", "acme/analytics:2.0.1", 100, 128))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Close()

	body := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(resp.Body) // returns only when the server ends the stream
		body <- string(data)
	}()
	select {
	case got := <-body:
		if !strings.Contains(got, "last-words") {
			t.Fatalf("stream ended without the terminal event published before Close:\n%s", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream still open 5s after the platform closed")
	}
	log, err := srv.eventLog()
	if err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	closed := log.closed
	log.mu.Unlock()
	if !closed {
		t.Fatal("event log still open after the platform closed")
	}
}

// TestWatchStopsOnPermanentError: a reconnect the control plane refuses
// (401/403) must end the stream and surface the typed error — not spin
// silently forever.
func TestWatchStopsOnPermanentError(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{})

	var mu sync.Mutex
	conns := 0
	proxy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/watch" {
			srv.Handler().ServeHTTP(w, r)
			return
		}
		mu.Lock()
		conns++
		first := conns == 1
		mu.Unlock()
		if first {
			rc := http.NewResponseController(w)
			srv.Handler().ServeHTTP(&killAfterFirstEvent{w: w, rc: rc}, r)
			return
		}
		// Every reconnect is now refused as if the cert were revoked.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		_ = json.NewEncoder(w).Encode(&api.WireError{
			Code: api.CodeUnauthorized, Message: "subject revoked", Subject: "operator",
		})
	})
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	streamErr := make(chan error, 1)
	c := client.NewHTTP(ts.URL, client.WithIdentity(id),
		client.WithBackoff(5*time.Millisecond, 20*time.Millisecond),
		client.WithStreamErrorHandler(func(err error) { streamErr <- err }))
	t.Cleanup(func() { _ = c.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eventsCh, err := c.Watch(ctx, api.WatchSelector{Tenant: "acme"})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	// Drive one event through the doomed connection to trigger the kill
	// and the fatal reconnect.
	d, err := c.DeployAsync(ctx, spec("trigger", "acme/analytics:2.0.1", 100, 128))
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if _, err := d.Await(ctx); err != nil {
		t.Fatalf("await: %v", err)
	}

	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-eventsCh:
			if !ok {
				// Stream ended; the typed error must have been surfaced.
				select {
				case err := <-streamErr:
					if !errors.Is(err, orchestrator.ErrUnauthorized) {
						t.Fatalf("stream error = %v, want ErrUnauthorized", err)
					}
					return
				case <-time.After(time.Second):
					t.Fatal("stream closed but no error surfaced")
				}
			}
		case <-deadline:
			t.Fatal("stream never terminated after permanent refusal")
		}
	}
}

// TestGracefulDrain verifies the shutdown sequence: in-flight async
// deploys finish, new ones are refused with the closed error.
func TestGracefulDrain(t *testing.T) {
	p := testPlatform(t)
	release := make(chan struct{})
	p.Cluster.RegisterAdmissionCtx("test-gate",
		func(ctx context.Context, s orchestrator.WorkloadSpec, _ *container.Image) error {
			if s.Name != "slow" {
				return nil
			}
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	srv, _, c := testServer(t, p)
	ctx := context.Background()

	d, err := c.DeployAsync(ctx, spec("slow", "acme/analytics:2.0.1", 100, 128))
	if err != nil {
		t.Fatalf("deploy async: %v", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()

	// Drain must refuse new async deploys...
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.DeployAsync(ctx, spec("late", "acme/analytics:2.0.1", 100, 128))
		if errors.Is(err, events.ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late deploy err = %v, want ErrClosed", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// ...while waiting for the in-flight one.
	select {
	case err := <-drained:
		t.Fatalf("drain returned before in-flight deploy finished: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if wl, err := d.Await(ctx); err != nil || wl == nil {
		t.Fatalf("in-flight deploy should have completed: %v", err)
	}
}

// TestAddNodeAndAttachONUOverWire exercises the provisioning endpoints.
func TestAddNodeAndAttachONUOverWire(t *testing.T) {
	p := testPlatform(t)
	_, _, c := testServer(t, p)
	ctx := context.Background()
	if err := c.AddNode(ctx, "", "olt-03", api.Resources{CPUMilli: 8000, MemoryMB: 16384}); err != nil {
		t.Fatalf("add node: %v", err)
	}
	if err := c.AttachONU(ctx, "olt-03", "onu-9001"); err != nil {
		t.Fatalf("attach onu: %v", err)
	}
	if err := c.AttachONU(ctx, "olt-ghost", "onu-9002"); !errors.Is(err, core.ErrNoNode) {
		t.Fatalf("ghost attach err = %v, want ErrNoNode", err)
	}
	if err := c.Cordon(ctx, "olt-03"); err != nil {
		t.Fatalf("cordon: %v", err)
	}
	nodes, err := c.Nodes(ctx, nil, "")
	if err != nil {
		t.Fatalf("nodes: %v", err)
	}
	var found bool
	for _, n := range nodes {
		if n.Node == "olt-03" {
			found = true
			if !n.Cordoned {
				t.Fatal("olt-03 not cordoned in fleet table")
			}
		}
	}
	if !found {
		t.Fatal("olt-03 missing from fleet table")
	}
}

// TestNodeVerbsReachNonDefaultFederationMember drives cordon, drain and
// fail over the wire at a node of a member that is not the default
// cluster: the verbs must find it instead of answering unknown-node.
func TestNodeVerbsReachNonDefaultFederationMember(t *testing.T) {
	p, err := core.New(core.SecureConfig(), core.WithFederation(
		core.FederationMember{Name: "a", Region: "west"},
		core.FederationMember{Name: "b", Region: "east"}))
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	t.Cleanup(p.Close)
	p.RBAC.SetRole(rbac.Role{Name: "operator", Permissions: []rbac.Permission{
		{Verb: "*", Resource: "*", Namespace: "*"},
	}})
	if err := p.RBAC.Bind("operator", "operator"); err != nil {
		t.Fatalf("bind: %v", err)
	}
	_, _, c := testServer(t, p)
	ctx := context.Background()
	for _, node := range []string{"b-0", "b-1"} {
		if err := c.AddNode(ctx, "b", node, api.Resources{CPUMilli: 8000, MemoryMB: 16384}); err != nil {
			t.Fatalf("add node %s: %v", node, err)
		}
	}

	if err := c.Cordon(ctx, "b-0"); err != nil {
		t.Fatalf("cordon: %v", err)
	}
	nodes, err := c.Nodes(ctx, nil, "b")
	if err != nil {
		t.Fatalf("nodes: %v", err)
	}
	for _, n := range nodes {
		if n.Cordoned != (n.Node == "b-0") {
			t.Fatalf("after cordon b-0: %+v", nodes)
		}
	}
	if res, err := c.Drain(ctx, "b-1"); err != nil || res.Node != "b-1" {
		t.Fatalf("drain: %+v, %v", res, err)
	}
	if res, err := c.FailNode(ctx, "b-0"); err != nil || res.Node != "b-0" {
		t.Fatalf("fail: %+v, %v", res, err)
	}
	if nodes, err = c.Nodes(ctx, nil, "b"); err != nil || len(nodes) != 1 || nodes[0].Node != "b-1" {
		t.Fatalf("after failing b-0: %+v, %v", nodes, err)
	}
}

// TestNodesRejectsMalformedProbe: probe parameters are outside input —
// a non-numeric or negative demand is a 400, not a silent zero.
func TestNodesRejectsMalformedProbe(t *testing.T) {
	p := testPlatform(t)
	ts := httptest.NewServer(New(p, Options{AllowAnonymous: true}).Handler())
	t.Cleanup(ts.Close)
	for _, tc := range []struct {
		name, query string
		status      int
		scored      bool
	}{
		{"no probe", "", http.StatusOK, false},
		{"valid", "?probeCpu=500&probeMem=512", http.StatusOK, true},
		{"one-sided", "?probeCpu=500", http.StatusOK, true},
		{"non-numeric", "?probeCpu=abc&probeMem=512", http.StatusBadRequest, false},
		{"negative", "?probeCpu=500&probeMem=-1", http.StatusBadRequest, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, ts.URL+"/v2/nodes"+tc.query, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(api.HeaderSubject, "operator")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.status != http.StatusOK {
				var we api.WireError
				if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Code != api.CodeBadRequest {
					t.Fatalf("error body = %+v (%v), want %s", we, err, api.CodeBadRequest)
				}
				return
			}
			var nodes []api.NodeStatus
			if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil || len(nodes) != 2 {
				t.Fatalf("nodes = %+v (%v)", nodes, err)
			}
			for _, n := range nodes {
				if (n.Binpack != nil && n.Spread != nil) != tc.scored {
					t.Fatalf("scores present = %v, want %v: %+v", !tc.scored, tc.scored, n)
				}
			}
		})
	}
}

// deadStore is a persist.Store whose Append can be flipped to fail,
// driving the platform into its non-durable degraded posture.
type deadStore struct {
	persist.Store
	fail atomic.Bool
}

func (d *deadStore) Append(r persist.Record) error {
	if d.fail.Load() {
		return errors.New("simulated disk failure")
	}
	return d.Store.Append(r)
}

// TestHealthzReportsDegradedStore: a failed store must be visible on
// the health surface — the daemon stays live (200) but the body flips
// to degraded with the persist error, so operators and readiness
// probes see that state is no longer durable.
func TestHealthzReportsDegradedStore(t *testing.T) {
	ds := &deadStore{Store: persist.Memory()}
	p, err := core.New(core.SecureConfig(), core.WithStore(ds))
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	t.Cleanup(p.Close)
	srv := New(p, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	getHealth := func() map[string]string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v2/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status = %d, want 200 (liveness stays up)", resp.StatusCode)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		return body
	}

	if body := getHealth(); body["status"] != "ok" {
		t.Fatalf("healthy body = %v, want status ok", body)
	}

	ds.fail.Store(true)
	if _, err := p.AddEdgeNode("olt-01", orchestrator.Resources{CPUMilli: 1000, MemoryMB: 1024}); err != nil {
		t.Fatalf("node: %v", err)
	}

	body := getHealth()
	if body["status"] != "degraded" || body["persist"] == "" {
		t.Fatalf("degraded body = %v, want status degraded with persist error", body)
	}
}

// TestDeployBatchOverHTTP drives the batched wire path: one signed
// request, N specs, positional typed results — a rejection never fails
// its siblings, and every error crosses the wire with its taxonomy
// intact.
func TestDeployBatchOverHTTP(t *testing.T) {
	p := testPlatform(t)
	_, _, c := testServer(t, p)
	ctx := context.Background()

	bad := spec("batch-typo", "acme/analytics:2.0.1", 100, 128)
	bad.Isolation = "quantum" // fails wire-spec validation before the platform
	specs := []api.WorkloadSpec{
		spec("batch-web", "acme/analytics:2.0.1", 500, 512),
		spec("batch-mal", "freestuff/optimizer:latest", 100, 128),
		bad,
		spec("batch-api", "acme/analytics:2.0.1", 400, 256),
	}
	results, err := c.DeployBatch(ctx, specs)
	if err != nil {
		t.Fatalf("batch transport: %v", err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for _, i := range []int{0, 3} {
		if results[i].Err != nil {
			t.Fatalf("results[%d].Err = %v, want placed", i, results[i].Err)
		}
		if results[i].Workload == nil || results[i].Workload.Node == "" {
			t.Fatalf("results[%d] placement incomplete: %+v", i, results[i].Workload)
		}
	}
	var ae *orchestrator.AdmissionError
	if !errors.As(results[1].Err, &ae) || !errors.Is(results[1].Err, orchestrator.ErrDenied) {
		t.Fatalf("results[1].Err = %v, want AdmissionError/ErrDenied", results[1].Err)
	}
	if results[1].Workload != nil {
		t.Fatalf("rejected element carries a workload: %+v", results[1].Workload)
	}
	if results[2].Err == nil || results[2].Workload != nil {
		t.Fatalf("results[2] = (%+v, %v), want spec-validation error only", results[2].Workload, results[2].Err)
	}

	// The placements are real: both workloads run on the platform.
	for _, name := range []string{"batch-web", "batch-api"} {
		if _, ok := p.Cluster.Workload(name); !ok {
			t.Fatalf("workload %s not on cluster", name)
		}
	}
}

// TestNegativeDemandIs400OnEveryDeployRoute (T8): a negative resource
// demand never reaches the pipeline from the wire — sync and async
// deploys answer 400 bad-request, a batch reports it positionally while
// its neighbours place, and node accounting is untouched.
func TestNegativeDemandIs400OnEveryDeployRoute(t *testing.T) {
	p := testPlatform(t)
	_, _, c := testServer(t, p)
	ctx := context.Background()
	neg := spec("neg", "acme/analytics:2.0.1", -100000, -100000)

	badRequest := func(route string, err error) {
		t.Helper()
		var we *api.WireError
		if !errors.As(err, &we) || we.Code != api.CodeBadRequest || we.Status() != http.StatusBadRequest {
			t.Fatalf("%s: err = %v, want 400 %s", route, err, api.CodeBadRequest)
		}
	}
	_, err := c.Deploy(ctx, neg)
	badRequest("POST /v2/deployments", err)
	_, err = c.DeployAsync(ctx, neg)
	badRequest("POST /v2/deployments/async", err)
	results, err := c.DeployBatch(ctx, []api.WorkloadSpec{
		spec("batch-ok", "acme/analytics:2.0.1", 100, 128),
		neg,
	})
	if err != nil {
		t.Fatalf("batch transport: %v", err)
	}
	if results[0].Err != nil {
		t.Fatalf("results[0].Err = %v, want placed", results[0].Err)
	}
	badRequest("POST /v2/deploy/batch [1]", results[1].Err)

	var used orchestrator.Resources
	for _, u := range p.Cluster.Utilization() {
		used.CPUMilli += u.Used.CPUMilli
		used.MemoryMB += u.Used.MemoryMB
	}
	if want := (orchestrator.Resources{CPUMilli: 100, MemoryMB: 128}); used != want {
		t.Fatalf("fleet Used = %+v, want %+v (only batch-ok placed)", used, want)
	}
}

// TestDeployBatchRejectsDegenerateRequests pins the request-shape
// guards: an empty batch and an oversized batch are refused whole with
// a typed bad-request, before any spec touches the platform.
func TestDeployBatchRejectsDegenerateRequests(t *testing.T) {
	p := testPlatform(t)
	_, ts, _ := testServer(t, p)
	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	sess := handshake(t, ts.URL, id)

	post := func(body any) *http.Response {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/deploy/batch", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := api.SignRequestSession(req, sess); err != nil {
			t.Fatalf("sign: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		return resp
	}

	for name, body := range map[string]any{
		"empty":     api.DeployBatchRequest{},
		"oversized": api.DeployBatchRequest{Specs: make([]api.WorkloadSpec, 1025)},
	} {
		resp := post(body)
		var we api.WireError
		if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || we.Code != api.CodeBadRequest {
			t.Fatalf("%s: status=%d code=%s, want 400 %s", name, resp.StatusCode, we.Code, api.CodeBadRequest)
		}
	}
}

// sessionCounter wraps the server handler and tallies how requests
// authenticate: the Ed25519 handshake/bootstrap path (certificate
// header) vs the steady-state HMAC session path (session header).
type sessionCounter struct {
	h          http.Handler
	handshakes atomic.Int64
	certSigned atomic.Int64
	sessSigned atomic.Int64
}

func (sc *sessionCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v2/session" {
		sc.handshakes.Add(1)
	} else if r.Header.Get(api.HeaderSession) != "" {
		sc.sessSigned.Add(1)
	} else if r.Header.Get(api.HeaderCertificate) != "" {
		sc.certSigned.Add(1)
	}
	sc.h.ServeHTTP(w, r)
}

// TestSessionHandshakeMovesSteadyStateToHMAC checks the client performs
// ONE Ed25519 handshake and signs every subsequent request with the
// session secret — no certificate header, no per-request asymmetric
// verify — while the server still authenticates and authorizes each
// request as the same subject.
func TestSessionHandshakeMovesSteadyStateToHMAC(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{})
	t.Cleanup(srv.Close)
	counter := &sessionCounter{h: srv.Handler()}
	ts := httptest.NewServer(counter)
	t.Cleanup(ts.Close)
	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	c := client.NewHTTP(ts.URL, client.WithIdentity(id))
	t.Cleanup(func() { _ = c.Close() })
	ctx := context.Background()

	if _, err := c.Deploy(ctx, spec("sess-web", "acme/analytics:2.0.1", 200, 256)); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Ledger(ctx); err != nil {
			t.Fatalf("ledger %d: %v", i, err)
		}
	}
	if got := counter.handshakes.Load(); got != 1 {
		t.Fatalf("handshakes = %d, want exactly 1", got)
	}
	if got := counter.sessSigned.Load(); got != 6 {
		t.Fatalf("session-signed requests = %d, want 6", got)
	}
	if got := counter.certSigned.Load(); got != 0 {
		t.Fatalf("cert-signed steady-state requests = %d, want 0", got)
	}
}

// swapHandler atomically swaps the backing handler mid-test — the
// moral equivalent of a server restart on the same address, which
// wipes the (in-memory) session table.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// TestSessionExpiryReKeysTransparently: when the server no longer
// recognizes the client's session (restart, eviction, expiry), the
// recoverable session-expired 401 must trigger one re-handshake and a
// retry — invisible to the caller.
func TestSessionExpiryReKeysTransparently(t *testing.T) {
	p := testPlatform(t)
	srvA := New(p, Options{})
	t.Cleanup(srvA.Close)
	sh := &swapHandler{h: srvA.Handler()}
	ts := httptest.NewServer(sh)
	t.Cleanup(ts.Close)
	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	c := client.NewHTTP(ts.URL, client.WithIdentity(id))
	t.Cleanup(func() { _ = c.Close() })
	ctx := context.Background()

	if _, err := c.Ledger(ctx); err != nil {
		t.Fatalf("ledger before restart: %v", err)
	}

	// "Restart": fresh server, fresh verifier, empty session table. The
	// client still holds server A's session token.
	srvB := New(p, Options{})
	t.Cleanup(srvB.Close)
	sh.swap(srvB.Handler())

	if _, err := c.Ledger(ctx); err != nil {
		t.Fatalf("ledger after restart not transparent: %v", err)
	}
	if _, err := c.Deploy(ctx, spec("rekey-web", "acme/analytics:2.0.1", 200, 256)); err != nil {
		t.Fatalf("deploy after restart: %v", err)
	}
}

// TestFullSessionTableNeverRefusesHandshake: with the session table at
// capacity a new client's handshake still succeeds — the oldest-issued
// session is evicted to make room — and the evicted client's next call
// gets the recoverable session-expired 401, re-keys and goes through,
// invisibly to its caller.
func TestFullSessionTableNeverRefusesHandshake(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{})
	t.Cleanup(srv.Close)
	counter := &sessionCounter{h: srv.Handler()}
	ts := httptest.NewServer(counter)
	t.Cleanup(ts.Close)
	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	newClient := func() *client.HTTP {
		c := client.NewHTTP(ts.URL, client.WithIdentity(id))
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	ctx := context.Background()

	oldest := newClient()
	if _, err := oldest.Ledger(ctx); err != nil {
		t.Fatalf("first client: %v", err)
	}
	// Fill the rest of the table behind it.
	for i := 1; i < api.DefaultSessionCapacity; i++ {
		if _, err := srv.verifier.IssueSession("filler"); err != nil {
			t.Fatalf("IssueSession %d: %v", i, err)
		}
	}
	if _, err := newClient().Ledger(ctx); err != nil {
		t.Fatalf("client arriving at a full session table: %v", err)
	}
	if _, err := oldest.Deploy(ctx, spec("evicted-web", "acme/analytics:2.0.1", 200, 256)); err != nil {
		t.Fatalf("evicted client's deploy did not re-key transparently: %v", err)
	}
	if got := counter.handshakes.Load(); got != 3 {
		t.Fatalf("handshakes = %d, want 3 (two clients, one re-key after eviction)", got)
	}
	if got := counter.certSigned.Load(); got != 0 {
		t.Fatalf("cert-signed steady-state requests = %d, want 0", got)
	}
}

// TestSessionReKeyRacesInFlightRequests hammers the client from many
// goroutines while the server-side TTL is barely above the client's
// 2s early-refresh margin, so sessions expire (and re-key) constantly
// under load. Run with -race; every request must still succeed.
func TestSessionReKeyRacesInFlightRequests(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{SessionTTL: 2100 * time.Millisecond})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	id, err := p.CA.Issue("operator", pki.RoleService)
	if err != nil {
		t.Fatalf("issue: %v", err)
	}
	c := client.NewHTTP(ts.URL, client.WithIdentity(id))
	t.Cleanup(func() { _ = c.Close() })
	ctx := context.Background()

	const (
		workers  = 8
		requests = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				if _, err := c.Ledger(ctx); err != nil {
					errs <- fmt.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDeployBatchRacesServerClose closes the server while batches are
// in flight (run with -race): requests may fail, but nothing may panic
// or race, and the platform the server does not own must stay usable.
func TestDeployBatchRacesServerClose(t *testing.T) {
	p := testPlatform(t)
	srv, _, c := testServer(t, p)
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				specs := []api.WorkloadSpec{
					spec(fmt.Sprintf("race-%d-%d-a", w, i), "acme/analytics:2.0.1", 100, 128),
					spec(fmt.Sprintf("race-%d-%d-b", w, i), "acme/analytics:2.0.1", 100, 128),
				}
				// Failures are fine mid-close; panics and races are not.
				_, _ = c.DeployBatch(ctx, specs)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		srv.Close()
	}()
	wg.Wait()

	if _, err := p.AddEdgeNode("olt-99", orchestrator.Resources{CPUMilli: 1000, MemoryMB: 1024}); err != nil {
		t.Fatalf("platform unusable after racing close: %v", err)
	}
}
