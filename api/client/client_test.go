package client

// Conformance tests: every Interface method is exercised in every shape
// the one implementation (HTTP) is deployed in, and must behave
// identically, including the typed errors errors.Is/As-matched after a
// wire decode. All three are HTTP; they differ in who the caller is:
//
//   - "local": anonymous loopback, the daemon-less genioctl shape — a
//     subject header against an AllowAnonymous api/server this process
//     hosts on 127.0.0.1;
//   - "http": session, the remote shape — an identity that handshakes
//     once and MACs every request, against a strict server;
//   - "session-on-anonymous-server": that same identity against a server
//     that also allows anonymous callers (geniod -allow-anonymous), where
//     it must still act as its certificate's subject.
//
// The first two keep the names they had when one of them was in-process:
// the test floor pins them as the suite prints them.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"genio"
	"genio/api"
	"genio/api/server"
	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/demo"
	"genio/internal/orchestrator"
	"genio/internal/pki"
)

// mode builds a client plus the platform behind it (for white-box
// assertions and admission gates).
type mode struct {
	name  string
	build func(t *testing.T) (Interface, *core.Platform)
}

func modes(t *testing.T) []mode {
	t.Helper()
	return []mode{
		{"local", func(t *testing.T) (Interface, *core.Platform) {
			p, err := demo.Platform(core.SecureConfig(), "ops")
			if err != nil {
				t.Fatal(err)
			}
			url, stop, err := server.New(p, server.Options{AllowAnonymous: true}).ServeLoopback()
			if err != nil {
				t.Fatal(err)
			}
			cli := NewHTTP(url, WithSubject("ops"),
				WithBackoff(5*time.Millisecond, 20*time.Millisecond))
			t.Cleanup(func() { cli.Close(); stop(); p.Close() })
			return cli, p
		}},
		{"http", func(t *testing.T) (Interface, *core.Platform) {
			p, err := demo.Platform(core.SecureConfig(), "ops")
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(p, server.Options{CA: p.CA})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() { ts.Close(); p.Close() })
			id, err := p.CA.Issue("ops", pki.RoleService)
			if err != nil {
				t.Fatal(err)
			}
			cli := NewHTTP(ts.URL,
				WithIdentity(id),
				WithHTTPClient(ts.Client()),
				WithBackoff(5*time.Millisecond, 20*time.Millisecond))
			t.Cleanup(func() { cli.Close() })
			return cli, p
		}},
		{"session-on-anonymous-server", func(t *testing.T) (Interface, *core.Platform) {
			// Only "ops" is bound: demoted to the anonymous subject, every
			// call below would be an RBAC refusal.
			p, err := demo.Platform(core.SecureConfig(), "ops")
			if err != nil {
				t.Fatal(err)
			}
			url, stop, err := server.New(p, server.Options{AllowAnonymous: true}).ServeLoopback()
			if err != nil {
				t.Fatal(err)
			}
			id, err := p.CA.Issue("ops", pki.RoleService)
			if err != nil {
				t.Fatal(err)
			}
			cli := NewHTTP(url, WithIdentity(id),
				WithBackoff(5*time.Millisecond, 20*time.Millisecond))
			t.Cleanup(func() { cli.Close(); stop(); p.Close() })
			return cli, p
		}},
	}
}

func spec(name, ref string) api.WorkloadSpec {
	return api.WorkloadSpec{
		Name: name, Tenant: "acme", ImageRef: ref, Isolation: "soft",
		Resources: api.Resources{CPUMilli: 200, MemoryMB: 256},
	}
}

func TestConformanceDeploy(t *testing.T) {
	for _, m := range modes(t) {
		t.Run(m.name, func(t *testing.T) {
			cli, p := m.build(t)
			ctx := context.Background()

			wl, err := cli.Deploy(ctx, spec("web", "acme/analytics:2.0.1"))
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			if wl.Spec.Name != "web" || wl.Node == "" || wl.VMID == "" {
				t.Fatalf("thin workload: %+v", wl)
			}
			if _, ok := p.Cluster.Workload("web"); !ok {
				t.Fatal("workload not in cluster")
			}

			// Admission rejection: typed verdict vector after decode.
			_, err = cli.Deploy(ctx, spec("flagged", "acme/iot-gateway:1.4.2"))
			var adm *genio.AdmissionError
			if !errors.As(err, &adm) {
				t.Fatalf("want AdmissionError, got %T: %v", err, err)
			}
			if !errors.Is(err, genio.ErrRejected) || len(adm.Rejections()) == 0 {
				t.Fatalf("verdicts lost: %+v", adm)
			}

			// Unsigned image: pull error chaining to the container sentinel.
			_, err = cli.Deploy(ctx, spec("shady", "freestuff/log-shipper:3.1"))
			var pull *genio.ImagePullError
			if !errors.As(err, &pull) || !errors.Is(err, container.ErrUnsigned) {
				t.Fatalf("want ImagePullError/ErrUnsigned, got %T: %v", err, err)
			}

			// Duplicate name.
			_, err = cli.Deploy(ctx, spec("web", "acme/analytics:2.0.1"))
			if !errors.Is(err, genio.ErrDuplicateName) {
				t.Fatalf("want ErrDuplicateName, got %v", err)
			}

			// Malformed spec: bad isolation is rejected client-side or
			// server-side, but never placed.
			bad := spec("bad-iso", "acme/analytics:2.0.1")
			bad.Isolation = "quantum"
			if _, err := cli.Deploy(ctx, bad); err == nil {
				t.Fatal("unknown isolation accepted")
			}
		})
	}
}

func TestConformanceAsyncAndWatch(t *testing.T) {
	for _, m := range modes(t) {
		t.Run(m.name, func(t *testing.T) {
			cli, _ := m.build(t)
			ctx := context.Background()

			// The watch gets its own cancellable context: an SSE stream left
			// on context.Background would hold the httptest server open.
			wctx, wcancel := context.WithCancel(ctx)
			defer wcancel()
			events, err := cli.Watch(wctx, api.WatchSelector{Workload: "async-web", TerminalOnly: true})
			if err != nil {
				t.Fatal(err)
			}

			d, err := cli.DeployAsync(ctx, spec("async-web", "acme/analytics:2.0.1"))
			if err != nil {
				t.Fatal(err)
			}
			if d.ID() == "" {
				t.Fatal("no deployment id")
			}
			wl, err := d.Await(ctx)
			if err != nil || wl.Node == "" {
				t.Fatalf("await: %v / %+v", err, wl)
			}
			st, err := d.Status(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != "running" || st.Placed == nil || st.Placed.Node != wl.Node {
				t.Fatalf("terminal status: %+v", st)
			}

			select {
			case ev := <-events:
				if ev.Workload != "async-web" || ev.State != "running" || !ev.Terminal() {
					t.Fatalf("watch event: %+v", ev)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no terminal watch event")
			}

			// An async rejection surfaces the typed error from Await and in
			// the terminal status.
			d2, err := cli.DeployAsync(ctx, spec("async-flagged", "acme/iot-gateway:1.4.2"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d2.Await(ctx); !errors.Is(err, genio.ErrRejected) {
				t.Fatalf("want ErrRejected, got %v", err)
			}
			st2, err := d2.Status(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st2.State != "rejected" || st2.Error == nil {
				t.Fatalf("rejected status: %+v", st2)
			}
		})
	}
}

func TestConformanceCancelNeverPlaced(t *testing.T) {
	for _, m := range modes(t) {
		t.Run(m.name, func(t *testing.T) {
			cli, p := m.build(t)
			ctx := context.Background()

			// Hold the deployment inside admission until its context dies,
			// so the cancel deterministically lands mid-scan.
			entered := make(chan struct{})
			p.Cluster.RegisterAdmissionCtx("test-gate",
				func(ctx context.Context, s orchestrator.WorkloadSpec, _ *container.Image) error {
					if s.Name != "doomed" {
						return nil
					}
					close(entered)
					<-ctx.Done()
					return ctx.Err()
				})

			d, err := cli.DeployAsync(ctx, spec("doomed", "acme/analytics:2.0.1"))
			if err != nil {
				t.Fatal(err)
			}
			<-entered
			if err := d.Cancel(ctx); err != nil {
				t.Fatal(err)
			}
			_, err = d.Await(ctx)
			var cancelled *genio.CancelledError
			if !errors.As(err, &cancelled) {
				t.Fatalf("want CancelledError, got %T: %v", err, err)
			}
			if _, ok := p.Cluster.Workload("doomed"); ok {
				t.Fatal("cancelled deployment was placed")
			}
		})
	}
}

func TestConformanceNodeLifecycle(t *testing.T) {
	for _, m := range modes(t) {
		t.Run(m.name, func(t *testing.T) {
			cli, _ := m.build(t)
			ctx := context.Background()

			if err := cli.AddNode(ctx, "", "olt-03", api.Resources{CPUMilli: 8000, MemoryMB: 16384}); err != nil {
				t.Fatal(err)
			}
			if err := cli.AttachONU(ctx, "olt-03", "onu-9001"); err != nil {
				t.Fatal(err)
			}

			for i := 0; i < 3; i++ {
				if _, err := cli.Deploy(ctx, spec(fmt.Sprintf("app-%d", i), "acme/analytics:2.0.1")); err != nil {
					t.Fatal(err)
				}
			}

			nodes, err := cli.Nodes(ctx, nil, "")
			if err != nil || len(nodes) != 3 {
				t.Fatalf("nodes: %v / %d", err, len(nodes))
			}
			scored, err := cli.Nodes(ctx, &api.Resources{CPUMilli: 500, MemoryMB: 512}, "")
			if err != nil {
				t.Fatal(err)
			}
			anyScore := false
			for _, n := range scored {
				if n.Binpack != nil && n.Spread != nil {
					anyScore = true
				}
			}
			if !anyScore {
				t.Fatalf("probe produced no scores: %+v", scored)
			}

			if err := cli.Cordon(ctx, "olt-02"); err != nil {
				t.Fatal(err)
			}
			if err := cli.Uncordon(ctx, "olt-02"); err != nil {
				t.Fatal(err)
			}
			var nf *genio.NodeNotFoundError
			if err := cli.Cordon(ctx, "no-such-node"); !errors.As(err, &nf) {
				t.Fatalf("want NodeNotFoundError, got %v", err)
			}

			res, err := cli.Drain(ctx, "olt-01")
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			if len(res.Migrated) != len(res.Migrations) {
				t.Fatalf("migration detail mismatch: %+v", res)
			}
			for _, mg := range res.Migrations {
				if mg.Workload == "" || mg.Target == "olt-01" {
					t.Fatalf("bad migration: %+v", mg)
				}
			}

			fr, err := cli.FailNode(ctx, "olt-03")
			if err != nil {
				t.Fatal(err)
			}
			if fr.Node != "olt-03" {
				t.Fatalf("failover: %+v", fr)
			}
			if _, err := cli.FailNode(ctx, "olt-03"); err == nil {
				t.Fatal("failing a dead node succeeded")
			}

			if _, err := cli.Incidents(ctx); err != nil {
				t.Fatal(err)
			}
			ledger, err := cli.Ledger(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ledger["deploy.lifecycle"].Published == 0 && ledger["audit"].Published == 0 {
				t.Fatalf("empty ledger: %+v", ledger)
			}
		})
	}
}

// TestHTTPSubjectModes: an unauthenticated client is refused when the
// server requires signatures; the subject header works only when the
// server explicitly allows anonymous callers.
func TestHTTPSubjectModes(t *testing.T) {
	p, err := demo.Platform(core.SecureConfig(), "ops", "anon-ops")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	strict := httptest.NewServer(server.New(p, server.Options{CA: p.CA}).Handler())
	t.Cleanup(strict.Close)
	cli := NewHTTP(strict.URL, WithSubject("anon-ops"))
	t.Cleanup(func() { cli.Close() })
	_, err = cli.Nodes(context.Background(), nil, "")
	var we *api.WireError
	if !errors.As(err, &we) || we.Code != api.CodeUnauthenticated {
		t.Fatalf("want unauthenticated wire error, got %T: %v", err, err)
	}

	lax := httptest.NewServer(server.New(p, server.Options{CA: p.CA, AllowAnonymous: true}).Handler())
	t.Cleanup(lax.Close)
	anon := NewHTTP(lax.URL, WithSubject("anon-ops"))
	t.Cleanup(func() { anon.Close() })
	if _, err := anon.Nodes(context.Background(), nil, ""); err != nil {
		t.Fatalf("anonymous mode: %v", err)
	}
}

// TestHTTPTransportError: a dead server surfaces a transport error, not
// a hang or a decoded wire error.
func TestHTTPTransportError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	ts.Close() // dead on arrival
	cli := NewHTTP(ts.URL)
	defer cli.Close()
	if _, err := cli.Nodes(context.Background(), nil, ""); err == nil {
		t.Fatal("request against a closed server succeeded")
	}
}

// TestHandshakeTransportErrorIsRetryable: with no session held, the
// handshake is the first thing on the wire. Against a dead listener its
// failure must surface unchanged as a transport error, so Watch and
// Await reconnect loops keep treating a restarting daemon as retryable.
func TestHandshakeTransportErrorIsRetryable(t *testing.T) {
	ca, err := pki.NewCA("test-ca")
	if err != nil {
		t.Fatal(err)
	}
	id, err := ca.Issue("ops", pki.RoleService)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	ts.Close() // dead on arrival
	cli := NewHTTP(ts.URL, WithIdentity(id))
	defer cli.Close()
	_, err = cli.Nodes(context.Background(), nil, "")
	if err == nil {
		t.Fatal("request against a closed server succeeded")
	}
	var we *api.WireError
	if !isTransportError(err) || errors.As(err, &we) {
		t.Fatalf("handshake against a closed listener = %T: %v, want a transport error", err, err)
	}
}

// TestHandshakeRefusalIsTypedAndFinal: a handshake the server refuses
// (revoked certificate) surfaces the typed unauthenticated error, is not
// mistaken for a transport failure, and the request it was for never
// goes out — there is no second credential to try it with.
func TestHandshakeRefusalIsTypedAndFinal(t *testing.T) {
	p, err := demo.Platform(core.SecureConfig(), "ops")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	srv := server.New(p, server.Options{CA: p.CA})
	t.Cleanup(srv.Close)
	var handshakes, others atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/session" {
			handshakes.Add(1)
		} else {
			others.Add(1)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	id, err := p.CA.Issue("ops", pki.RoleService)
	if err != nil {
		t.Fatal(err)
	}
	p.CA.Revoke(id.Certificate.SerialNumber)
	cli := NewHTTP(ts.URL, WithIdentity(id))
	t.Cleanup(func() { cli.Close() })

	_, err = cli.Deploy(context.Background(), spec("never-sent", "acme/analytics:2.0.1"))
	var we *api.WireError
	if !errors.As(err, &we) || we.Code != api.CodeUnauthenticated {
		t.Fatalf("deploy with a revoked certificate = %T: %v, want the typed unauthenticated error", err, err)
	}
	if isTransportError(err) {
		t.Fatalf("refusal classified as a transport error: %v", err)
	}
	if handshakes.Load() != 1 || others.Load() != 0 {
		t.Fatalf("wire saw %d handshakes and %d other requests, want 1 and 0", handshakes.Load(), others.Load())
	}
	if _, ok := p.Cluster.Workload("never-sent"); ok {
		t.Fatal("workload placed for a refused identity")
	}
}

// TestConformanceDeployBatch: the batched entry point behaves
// identically daemon-less and remote — positional results, one typed
// rejection never failing its siblings, empty batch a no-op.
func TestConformanceDeployBatch(t *testing.T) {
	for _, m := range modes(t) {
		t.Run(m.name, func(t *testing.T) {
			cli, p := m.build(t)
			ctx := context.Background()

			bad := spec("bad-iso", "acme/analytics:2.0.1")
			bad.Isolation = "quantum"
			specs := []api.WorkloadSpec{
				spec("b-web", "acme/analytics:2.0.1"),
				spec("b-flagged", "acme/iot-gateway:1.4.2"),
				bad,
				spec("b-api", "acme/analytics:2.0.1"),
			}
			results, err := cli.DeployBatch(ctx, specs)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			if len(results) != len(specs) {
				t.Fatalf("got %d results for %d specs", len(results), len(specs))
			}
			for _, i := range []int{0, 3} {
				if results[i].Err != nil || results[i].Workload == nil || results[i].Workload.Node == "" {
					t.Fatalf("results[%d] = (%+v, %v), want placed", i, results[i].Workload, results[i].Err)
				}
				if _, ok := p.Cluster.Workload(specs[i].Name); !ok {
					t.Fatalf("workload %s not in cluster", specs[i].Name)
				}
			}
			var adm *genio.AdmissionError
			if !errors.As(results[1].Err, &adm) || !errors.Is(results[1].Err, genio.ErrRejected) {
				t.Fatalf("results[1].Err = %v, want AdmissionError", results[1].Err)
			}
			if results[2].Err == nil || results[2].Workload != nil {
				t.Fatalf("results[2] = (%+v, %v), want spec error", results[2].Workload, results[2].Err)
			}

			// Empty batch: no request, no results, no error.
			if results, err := cli.DeployBatch(ctx, nil); err != nil || results != nil {
				t.Fatalf("empty batch = (%v, %v), want (nil, nil)", results, err)
			}
		})
	}
}

// TestHTTPConnectionReuse pins the tuned transport: a burst of
// sequential signed requests to one host must ride ONE TCP connection
// (session handshake included). The stock transport's 2-per-host idle
// cap made deploy storms re-dial between bursts; the tuned transport
// keeps the connection warm.
func TestHTTPConnectionReuse(t *testing.T) {
	p, err := demo.Platform(core.SecureConfig(), "ops")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	srv := server.New(p, server.Options{CA: p.CA})
	ts := httptest.NewUnstartedServer(srv.Handler())
	var conns atomic.Int64
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	id, err := p.CA.Issue("ops", pki.RoleService)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately NOT ts.Client(): the point is the client's own
	// default transport.
	cli := NewHTTP(ts.URL, WithIdentity(id))
	t.Cleanup(func() { cli.Close() })
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if _, err := cli.Ledger(ctx); err != nil {
			t.Fatalf("ledger %d: %v", i, err)
		}
	}
	if _, err := cli.DeployBatch(ctx, []api.WorkloadSpec{
		spec("reuse-a", "acme/analytics:2.0.1"),
		spec("reuse-b", "acme/analytics:2.0.1"),
	}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("burst of sequential requests opened %d connections, want 1", got)
	}
}

// TestWatchResumesAcrossDaemonRestart: stream ids restart at 1 with
// every daemon lifetime, so the Last-Event-ID a client carries over a
// restart may lie beyond anything the new daemon has assigned. The
// reconnect must then replay everything the new daemon retained — the
// client has seen none of it — instead of filtering it out as "already
// delivered", and go live without a gap or a duplicate.
func TestWatchResumesAcrossDaemonRestart(t *testing.T) {
	boot := func() (*core.Platform, http.Handler) {
		p, err := demo.Platform(core.SecureConfig(), "ops")
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(p, server.Options{AllowAnonymous: true})
		t.Cleanup(func() { srv.Close(); p.Close() })
		return p, srv.Handler()
	}
	// One address, two daemon lifetimes behind it. While restarting,
	// resume attempts are refused at the transport so the client keeps
	// retrying with the id it holds.
	var (
		backend    atomic.Value // http.Handler
		restarting atomic.Bool
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if restarting.Load() && r.Header.Get("Last-Event-ID") != "" {
			if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
				_ = conn.Close()
			}
			return
		}
		backend.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()
	first, h := boot()
	backend.Store(h)

	newClient := func() *HTTP {
		cli := NewHTTP(ts.URL, WithSubject("ops"), WithBackoff(5*time.Millisecond, 20*time.Millisecond))
		t.Cleanup(func() { cli.Close() })
		return cli
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cli := newClient()
	events, err := cli.Watch(ctx, api.WatchSelector{TerminalOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	expect := func(want ...string) {
		t.Helper()
		got := map[string]int{}
		for range want {
			select {
			case ev, ok := <-events:
				if !ok {
					t.Fatalf("watch ended; still owed %v, got %v", want, got)
				}
				got[ev.Workload]++
			case <-time.After(5 * time.Second):
				t.Fatalf("watch delivered %v, want one terminal event each for %v", got, want)
			}
		}
		for _, w := range want {
			if got[w] != 1 {
				t.Fatalf("watch delivered %v, want one terminal event each for %v", got, want)
			}
		}
	}
	deploy := func(names ...string) {
		t.Helper()
		specs := make([]api.WorkloadSpec, len(names))
		for i, n := range names {
			specs[i] = spec(n, "acme/analytics:2.0.1")
		}
		if _, err := newClient().DeployBatch(ctx, specs); err != nil {
			t.Fatal(err)
		}
	}

	// Lifetime one: three deployments, twelve stream ids; the client
	// ends up holding the last terminal one.
	deploy("one-a", "one-b", "one-c")
	expect("one-a", "one-b", "one-c")

	// Restart. The new daemon's log starts with another watcher, then
	// logs two deployments (ids 1..8) while our client is locked out.
	restarting.Store(true)
	first.Close()
	_, h = boot()
	backend.Store(h)
	if _, err := newClient().Watch(ctx, api.WatchSelector{}); err != nil {
		t.Fatal(err)
	}
	deploy("two-a", "two-b")
	restarting.Store(false)
	expect("two-a", "two-b")

	// Live again, exactly once.
	deploy("two-c")
	expect("two-c")
}
