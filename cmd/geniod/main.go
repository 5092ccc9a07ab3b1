// Command geniod is the networked control-plane daemon: it hosts a
// GENIO platform behind the v2 HTTP surface (genio/api/server) so
// remote genioctl clients — and anything else speaking the genio/api
// wire contract — can deploy, watch, and operate the platform over the
// network.
//
// Usage:
//
//	geniod -addr 127.0.0.1:9650 -demo -identity-out /tmp/genioctl.id
//	geniod -posture legacy -allow-anonymous
//	geniod -demo -federation "edge-a=west,edge-b=east,edge-c=east" -pin "gov=east"
//
// -federation turns the platform into a federated control plane over
// the named clusters (deploys route region-filter → consistent-hash
// ring → per-cluster scheduler); -pin adds hard data-residency pins.
// Membership and pins are boot configuration — only the first member's
// state is durable under -data-dir.
//
// Every request is authenticated: a client proves an identity issued
// by the platform CA once (POST /v2/session, Ed25519-signed) and MACs
// every other request with the session it gets back (see api/auth.go).
// -allow-anonymous additionally accepts a request that presents no
// credential at all, under its bare subject header — the legacy posture
// of the wire; a request that does present one is still verified.
// -identity-out issues a service identity signed by the platform CA and
// writes it where genioctl's -identity flag (or GENIOD_IDENTITY) can
// load it.
//
// On SIGTERM/SIGINT the daemon shuts down gracefully: it stops
// accepting deployments, waits for in-flight deployment futures to
// reach a terminal state (bounded by -drain-timeout), flushes the event
// spine, and closes the platform before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"genio/api"
	"genio/api/server"
	"genio/internal/core"
	"genio/internal/demo"
	"genio/internal/orchestrator"
	"genio/internal/persist"
	"genio/internal/pki"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "geniod:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a termination signal lands or
// the listener fails. When ready is non-nil it receives the bound
// listen address once the server is accepting — tests and scripts use
// it instead of polling.
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("geniod", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:9650", "listen address")
	posture := fs.String("posture", "secure", "platform posture: secure | legacy")
	demoFixture := fs.Bool("demo", false, "seed the demo fixture (two edge nodes, signed image set, admin role)")
	identityOut := fs.String("identity-out", "", "issue a client identity signed by the platform CA and write it to this path")
	identitySubject := fs.String("identity-subject", "genioctl", "subject of the -identity-out client identity")
	anonymous := fs.Bool("allow-anonymous", false, "also accept requests that present no credential, trusting the subject header")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight deployments")
	dataDir := fs.String("data-dir", "", "durable state directory (write-ahead log + snapshots); recovered on boot")
	fedSpec := fs.String("federation", "", "run federated over named clusters, e.g. \"edge-a=west,edge-b=east\"; the first member is the default cluster")
	pinSpec := fs.String("pin", "", "tenant region pins (data residency), e.g. \"gov=west,acme=east\"; requires -federation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fedMembers, err := parseFederation(*fedSpec)
	if err != nil {
		return err
	}
	pins, err := parsePins(*pinSpec)
	if err != nil {
		return err
	}
	if len(pins) > 0 && len(fedMembers) == 0 {
		return fmt.Errorf("-pin requires -federation")
	}
	var cfg core.Config
	switch *posture {
	case "secure":
		cfg = core.SecureConfig()
	case "legacy":
		cfg = core.LegacyConfig()
	default:
		return fmt.Errorf("unknown posture %q", *posture)
	}

	var opts []core.Option
	if len(fedMembers) > 0 {
		opts = append(opts, core.WithFederation(fedMembers...))
	}
	var store persist.Store
	if *dataDir != "" {
		wal, err := persist.OpenWAL(*dataDir)
		if err != nil {
			return err
		}
		store = wal
		opts = append(opts, core.WithStore(store))
	}

	var p *core.Platform
	if *demoFixture {
		subjects := []string{*identitySubject}
		if *anonymous {
			subjects = append(subjects, "anonymous")
		}
		p, err = demo.PlatformOpts(cfg, opts, subjects...)
	} else {
		p, err = core.New(cfg, opts...)
	}
	if err != nil {
		// The platform owns the store once New succeeds; before that,
		// release it here.
		if store != nil {
			_ = store.Close()
		}
		return err
	}
	if *dataDir != "" {
		fmt.Fprintf(out, "durable state in %s: %d nodes, %d workloads, %d incidents recovered\n",
			*dataDir, len(p.Cluster.Nodes()), len(p.Cluster.Workloads()), len(p.Incidents()))
	}
	if len(fedMembers) > 0 {
		for _, pin := range pins {
			if err := p.PinTenant(pin[0], pin[1]); err != nil {
				p.Close()
				return err
			}
		}
		// The demo fixture seeds the default cluster only; give the peer
		// members their own capacity so federated routing has somewhere
		// to land.
		if *demoFixture {
			for _, m := range fedMembers[1:] {
				for i := 1; i <= 2; i++ {
					name := fmt.Sprintf("%s-olt-%02d", m.Name, i)
					if _, err := p.AddEdgeNodeIn(m.Name, name, orchestrator.Resources{
						CPUMilli: 16000, MemoryMB: 32768,
					}); err != nil {
						p.Close()
						return err
					}
				}
			}
		}
		for _, m := range p.Clusters() {
			fmt.Fprintf(out, "federation member %s (region %s): %d nodes\n", m.Name, m.Region, m.Nodes)
		}
	}

	srv := server.New(p, server.Options{CA: p.CA, AllowAnonymous: *anonymous})
	if *identityOut != "" {
		id, err := p.CA.Issue(*identitySubject, pki.RoleService)
		if err != nil {
			p.Close()
			return err
		}
		if err := api.SaveIdentity(*identityOut, id); err != nil {
			p.Close()
			return err
		}
		fmt.Fprintf(out, "client identity for %q written to %s\n", *identitySubject, *identityOut)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		p.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(out, "geniod listening on %s (posture %s)\n", ln.Addr(), *posture)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		_ = srv.Shutdown(context.Background())
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	fmt.Fprintln(out, "shutting down: draining in-flight deployments...")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Control plane first: refuse new deployments, wait for in-flight
	// futures, flush the spine, close the platform. Closing the platform
	// ends the watch streams, so the HTTP shutdown that follows isn't
	// held open by long-lived SSE connections.
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(out, "drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		_ = httpSrv.Close()
	}
	fmt.Fprintln(out, "shutdown complete")
	return nil
}

// parseFederation parses the -federation value, e.g.
// "edge-a=west,edge-b=east", preserving member order (the first member
// becomes the default cluster).
func parseFederation(s string) ([]core.FederationMember, error) {
	if s == "" {
		return nil, nil
	}
	var members []core.FederationMember
	for _, part := range strings.Split(s, ",") {
		name, region, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || region == "" {
			return nil, fmt.Errorf("bad -federation entry %q (want name=region)", part)
		}
		members = append(members, core.FederationMember{Name: name, Region: region})
	}
	return members, nil
}

// parsePins parses the -pin value, e.g. "gov=west,acme=east", into
// ordered (tenant, region) pairs.
func parsePins(s string) ([][2]string, error) {
	if s == "" {
		return nil, nil
	}
	var pins [][2]string
	for _, part := range strings.Split(s, ",") {
		tenant, region, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || tenant == "" || region == "" {
			return nil, fmt.Errorf("bad -pin entry %q (want tenant=region)", part)
		}
		pins = append(pins, [2]string{tenant, region})
	}
	return pins, nil
}
