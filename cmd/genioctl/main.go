// Command genioctl is the control-plane CLI and platform demo driver.
//
// Classic demo driver (in-process):
//
//	genioctl -posture secure
//	genioctl -posture legacy
//	genioctl -posture secure -campaign
//
// Control-plane API v2 subcommands:
//
//	genioctl deploy -image acme/analytics:2.0.1 -name web -wait
//	genioctl deploy -image acme/iot-gateway:1.4.2 -timeout 2s
//	genioctl watch -deploys 4 -tenant acme
//	genioctl nodes -top
//	genioctl nodes -cluster edge-b
//	genioctl clusters
//	genioctl clusters -evacuate edge-b
//	genioctl deploy -image acme/analytics:2.0.1 -name web -region west
//	genioctl cordon -node olt-01
//	genioctl cordon -node olt-01 -undo
//	genioctl drain -node olt-01 -timeout 5s
//
// Every subcommand speaks the v2 wire surface through the one client
// (genio/api/client); the modes differ only in who hosts the server:
//
//   - Remote: -server http://host:port (or GENIOD_ADDR) names a geniod
//     daemon; the identity file from -identity (or GENIOD_IDENTITY;
//     see geniod -identity-out) signs one session handshake and the
//     session authenticates every request after it.
//   - Daemon-less: with no server configured, the subcommand brings up
//     the demo platform in the chosen -posture, serves it on a
//     127.0.0.1 listener for the length of the command, and acts as
//     -subject with no identity file; the platform's RBAC still
//     applies.
//
// Typed control-plane errors decode back through genio/api, and both
// modes cross the same decode → RBAC → platform → encode path, so output
// is identical.
//
// `deploy` drives one asynchronous deployment: -timeout sets a context
// deadline, -wait streams the lifecycle transitions, and Ctrl-C
// (SIGINT) cancels the in-flight deployment — the server withdraws it
// at the next cancellation point and rolls back anything provisional.
// `watch` streams the deploy.lifecycle topic while a scripted mix of
// clean and hostile deployments runs; a remote watch survives dropped
// connections by reconnecting with backoff. `nodes -top` prints the
// per-node utilization and placement-score table; `cordon` marks a node
// unschedulable (`-undo` reverses it); `drain` cordons and
// live-migrates the node's workloads, printing each migration.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"genio/api"
	"genio/api/client"
	"genio/api/server"
	"genio/internal/attack"
	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/demo"
	"genio/internal/federation"
	"genio/internal/orchestrator"
	"genio/internal/rbac"
	"genio/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "genioctl:", err)
		os.Exit(1)
	}
}

// subcommands are the v2 verbs, dispatched by leading word.
var subcommands = []struct {
	name string
	run  func(args []string, out io.Writer) error
}{
	{"deploy", runDeploy},
	{"watch", runWatch},
	{"nodes", runNodes},
	{"clusters", runClusters},
	{"cordon", runCordon},
	{"drain", runDrain},
}

// run dispatches: the v2 subcommands by leading word, anything else to
// the classic demo driver.
func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		for _, sc := range subcommands {
			if sc.name == args[0] {
				return sc.run(args[1:], out)
			}
		}
	}
	return runDemo(args, out)
}

// parsePosture maps the -posture flag value to a Config.
func parsePosture(name string) (core.Config, error) {
	switch name {
	case "secure":
		return core.SecureConfig(), nil
	case "legacy":
		return core.LegacyConfig(), nil
	default:
		return core.Config{}, fmt.Errorf("unknown posture %q", name)
	}
}

// connFlags is the connection surface every v2 subcommand shares: which
// control plane to talk to, and as whom.
type connFlags struct {
	server   *string
	identity *string
	subject  *string
	posture  *string
}

// addConnFlags registers the shared connection flags on a subcommand's
// flag set.
func addConnFlags(fs *flag.FlagSet) *connFlags {
	c := &connFlags{}
	c.server = fs.String("server", os.Getenv("GENIOD_ADDR"),
		"geniod base URL, e.g. http://127.0.0.1:9650 (env GENIOD_ADDR); empty = in-process demo platform")
	c.identity = fs.String("identity", os.Getenv("GENIOD_IDENTITY"),
		"client identity file for -server (env GENIOD_IDENTITY; see geniod -identity-out)")
	c.subject = fs.String("subject", "genioctl", "control-plane subject to act as")
	c.posture = fs.String("posture", "secure", "platform posture for the in-process demo platform: secure | legacy")
	return c
}

// newClient builds the control-plane client. With -server (or
// GENIOD_ADDR) it talks to that daemon; without, it hosts the demo
// platform behind api/server on a loopback listener and talks to that —
// the same client.HTTP and the same wire path either way.
// fixtureWorkloads seeds that many demo workloads in daemon-less mode
// only — a remote daemon owns its own state. The returned close
// releases the client and, daemon-less, the server and platform behind
// it.
func (c *connFlags) newClient(fixtureWorkloads int) (*client.HTTP, func() error, error) {
	// A watch stream the server permanently refuses (revoked cert, RBAC
	// change) closes its channel; say why instead of exiting silently.
	opts := []client.HTTPOption{client.WithStreamErrorHandler(func(err error) {
		fmt.Fprintf(os.Stderr, "genioctl: watch stream ended: %v\n", err)
	})}
	if *c.server == "" {
		l, err := c.newLoopback(fixtureWorkloads, opts)
		if err != nil {
			return nil, nil, err
		}
		return l.HTTP, l.Close, nil
	}
	base := *c.server
	// Accept a bare host:port — geniod serves plain HTTP (auth is an
	// Ed25519-signed session handshake and a per-request MAC, not TLS).
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if *c.identity != "" {
		id, err := api.LoadIdentity(*c.identity)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, client.WithIdentity(id))
	} else {
		opts = append(opts, client.WithSubject(*c.subject))
	}
	cli := client.NewHTTP(base, opts...)
	return cli, cli.Close, nil
}

// loopback is the daemon-less client: client.HTTP against an api/server
// this process hosts on 127.0.0.1 over a demo platform it owns.
type loopback struct {
	*client.HTTP
	stop func()
	p    *core.Platform
}

// newLoopback brings up the demo platform in the chosen -posture and
// serves it to -subject without an identity file: the listener is
// loopback-only and lives for one command, so the server trusts the
// subject header (AllowAnonymous) and the platform's RBAC still decides
// what that subject may do.
func (c *connFlags) newLoopback(fixtureWorkloads int, opts []client.HTTPOption) (*loopback, error) {
	cfg, err := parsePosture(*c.posture)
	if err != nil {
		return nil, err
	}
	p, err := demo.Platform(cfg, *c.subject)
	if err != nil {
		return nil, err
	}
	if fixtureWorkloads > 0 {
		if err := demo.Workloads(p, *c.subject, fixtureWorkloads); err != nil {
			p.Close()
			return nil, err
		}
	}
	url, stop, err := server.New(p, server.Options{AllowAnonymous: true}).ServeLoopback()
	if err != nil {
		p.Close()
		return nil, err
	}
	opts = append(opts, client.WithSubject(*c.subject))
	return &loopback{HTTP: client.NewHTTP(url, opts...), stop: stop, p: p}, nil
}

// Close stops the client, then the server and its listener, then the
// platform. Idempotent.
func (l *loopback) Close() error {
	err := l.HTTP.Close()
	l.stop()
	l.p.Close()
	return err
}

// runDeploy drives one asynchronous deployment end to end through the
// client.
func runDeploy(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("genioctl deploy", flag.ContinueOnError)
	fs.SetOutput(out)
	conn := addConnFlags(fs)
	image := fs.String("image", "acme/analytics:2.0.1", "image ref to deploy")
	name := fs.String("name", "workload-1", "workload name")
	tenant := fs.String("tenant", "acme", "tenant namespace")
	cpu := fs.Int("cpu", 500, "cpu demand (milli-cores)")
	mem := fs.Int("mem", 512, "memory demand (MB)")
	isolation := fs.String("isolation", "soft", "isolation mode: soft | hard")
	region := fs.String("region", "", "constrain placement to this federation region (must match the tenant's pin, if any)")
	wait := fs.Bool("wait", false, "stream lifecycle transitions while waiting")
	timeout := fs.Duration("timeout", 0, "context deadline for the deployment (0 = none)")
	file := fs.String("f", "", "batch mode: JSON file with a list of workload specs, shipped as ONE signed request (-image/-name/-wait ignored)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cli, closeCli, err := conn.newClient(0)
	if err != nil {
		return err
	}
	defer closeCli()

	// Ctrl-C cancels the deployment context: the control plane stops the
	// in-flight deployment at the next cancellation point and rolls back
	// anything provisional (cancelled, never placed).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *file != "" {
		return runDeployBatch(ctx, cli, *file, out)
	}

	// The -wait stream watches this workload's lifecycle on its own
	// context so a cancelled deployment still reports its terminal
	// transition before the stream closes.
	watchDone := make(chan struct{})
	if *wait {
		wctx, wcancel := context.WithCancel(context.Background())
		defer wcancel()
		events, err := cli.Watch(wctx, api.WatchSelector{Workload: *name})
		if err != nil {
			return err
		}
		go func() {
			defer close(watchDone)
			for ev := range events {
				fmt.Fprintf(out, "  %-9s %s\n", ev.State, ev.Detail)
				if ev.Terminal() {
					return
				}
			}
		}()
	} else {
		close(watchDone)
	}

	fmt.Fprintf(out, "deployment %s (%s) submitted\n", *name, *image)
	d, err := cli.DeployAsync(ctx, api.WorkloadSpec{
		Name: *name, Tenant: *tenant, ImageRef: *image, Isolation: *isolation,
		Region:    *region,
		Resources: api.Resources{CPUMilli: *cpu, MemoryMB: *mem},
	})
	if err != nil {
		if ctx.Err() == nil {
			return err
		}
		// -timeout or Ctrl-C beat the submit: the control plane handed out
		// no deployment, so report the typed cancellation, not the
		// transport's view of the dead context.
		printDeployError(out, &orchestrator.CancelledError{Workload: *name, Stage: "submit", Err: ctx.Err()})
		return nil
	}
	wl, err := d.Await(ctx)
	if err != nil && ctx.Err() != nil {
		// The wait context died (SIGINT or -timeout) before the future
		// turned terminal: withdraw the deployment, then collect the
		// terminal outcome so the rollback is visible. Re-awaiting an
		// already-terminal future just returns its result.
		_ = d.Cancel(context.Background())
		wl, err = d.Await(context.Background())
	}
	// Let the transition stream finish before the final line so -wait
	// output is complete and ordered.
	select {
	case <-watchDone:
	case <-time.After(3 * time.Second):
	}
	if err == nil {
		fmt.Fprintf(out, "PLACED: %s on %s (vm %s)\n", wl.Spec.Name, wl.Node, wl.VMID)
		return nil
	}
	printDeployError(out, err)
	return nil
}

// runDeployBatch reads a JSON spec list and ships it through
// client.DeployBatch — against a remote server, one signed request for
// the whole batch. Results render positionally with the same typed
// taxonomy as single deploys; one rejection never blocks its siblings.
func runDeployBatch(ctx context.Context, cli *client.HTTP, path string, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// Accept a bare JSON list or the wire envelope {"specs": [...]}.
	var specs []api.WorkloadSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		var req api.DeployBatchRequest
		if err2 := json.Unmarshal(data, &req); err2 != nil || len(req.Specs) == 0 {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		specs = req.Specs
	}
	if len(specs) == 0 {
		return fmt.Errorf("%s contains no workload specs", path)
	}
	fmt.Fprintf(out, "batch of %d deployments submitted\n", len(specs))
	results, err := cli.DeployBatch(ctx, specs)
	if err != nil {
		return err
	}
	failed := 0
	for i, res := range results {
		fmt.Fprintf(out, "[%d/%d] %s: ", i+1, len(results), specs[i].Name)
		if res.Err != nil {
			failed++
			printDeployError(out, res.Err)
			continue
		}
		fmt.Fprintf(out, "PLACED on %s (vm %s)\n", res.Workload.Node, res.Workload.VMID)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d deployments failed", failed, len(results))
	}
	return nil
}

// printDeployError renders the typed taxonomy instead of one string:
// wire errors decode back to the library's types (genio/api).
func printDeployError(out io.Writer, err error) {
	var adm *orchestrator.AdmissionError
	var pull *orchestrator.ImagePullError
	var quota *orchestrator.QuotaError
	var capa *orchestrator.CapacityError
	var cancelled *orchestrator.CancelledError
	var pinned *federation.RegionPinnedError
	var fedCap *federation.FederationCapacityError
	switch {
	// Federation cases first: a FederationCapacityError may wrap the last
	// member cluster's CapacityError, which would match the generic
	// capacity case below.
	case errors.As(err, &pinned):
		fmt.Fprintf(out, "REJECTED by residency pin: tenant %s is pinned to region %q, deploy requested %q\n",
			pinned.Tenant, pinned.Region, pinned.Requested)
	case errors.As(err, &fedCap):
		region := fedCap.Region
		if region == "" {
			region = "any"
		}
		fmt.Fprintf(out, "REJECTED by federation: no capacity for %s in region %s across %d eligible cluster(s)\n",
			fedCap.Workload, region, fedCap.Clusters)
		if fedCap.Err != nil {
			fmt.Fprintf(out, "  last cluster said: %v\n", fedCap.Err)
		}
	case errors.As(err, &adm):
		fmt.Fprintf(out, "REJECTED by admission (workload %s):\n", adm.Workload)
		for _, v := range adm.Verdicts {
			switch {
			case !v.Passed:
				fmt.Fprintf(out, "  [FAIL] %-13s %s\n", v.Scanner, v.Detail)
			case v.Cached:
				fmt.Fprintf(out, "  [pass] %-13s (cached verdict)\n", v.Scanner)
			default:
				fmt.Fprintf(out, "  [pass] %-13s\n", v.Scanner)
			}
		}
	case errors.As(err, &pull):
		fmt.Fprintf(out, "REJECTED at pull: %s: %v\n", pull.Ref, pull.Err)
	case errors.As(err, &quota):
		fmt.Fprintf(out, "REJECTED by quota: tenant %s at cpu=%dm mem=%dMB of cpu=%dm mem=%dMB, requested cpu=%dm mem=%dMB\n",
			quota.Tenant, quota.Used.CPUMilli, quota.Used.MemoryMB,
			quota.Quota.CPUMilli, quota.Quota.MemoryMB,
			quota.Requested.CPUMilli, quota.Requested.MemoryMB)
	case errors.As(err, &capa):
		fmt.Fprintf(out, "REJECTED for capacity: %s needs cpu=%dm mem=%dMB; no fit across %d node(s)\n",
			capa.Workload, capa.Requested.CPUMilli, capa.Requested.MemoryMB, capa.Nodes)
	case errors.As(err, &cancelled):
		reason := "cancelled"
		if errors.Is(err, context.DeadlineExceeded) {
			reason = "deadline exceeded"
		}
		fmt.Fprintf(out, "CANCELLED (%s) during %s; workload was never placed\n", reason, cancelled.Stage)
	default:
		fmt.Fprintf(out, "FAILED: %v\n", err)
	}
}

// runWatch streams the deploy.lifecycle topic while a scripted mix of
// deployments runs.
func runWatch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("genioctl watch", flag.ContinueOnError)
	fs.SetOutput(out)
	conn := addConnFlags(fs)
	tenant := fs.String("tenant", "", "filter: only this tenant's deployments")
	terminal := fs.Bool("terminal-only", false, "filter: only terminal states")
	deploys := fs.Int("deploys", 4, "scripted deployments to drive while watching")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cli, closeCli, err := conn.newClient(0)
	if err != nil {
		return err
	}
	defer closeCli()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := cli.Watch(ctx, api.WatchSelector{Tenant: *tenant, TerminalOnly: *terminal})
	if err != nil {
		return err
	}
	// The scripted mix: clean, SAST-flagged, and unsigned refs rotate.
	refs := []string{"acme/analytics:2.0.1", "acme/iot-gateway:1.4.2", "freestuff/log-shipper:3.1"}
	specs := make([]api.WorkloadSpec, 0, *deploys)
	for i := 0; i < *deploys; i++ {
		specs = append(specs, api.WorkloadSpec{
			Name: fmt.Sprintf("watched-%02d", i), Tenant: "acme",
			ImageRef: refs[i%len(refs)], Isolation: api.IsolationSoft,
			Resources: api.Resources{CPUMilli: 200, MemoryMB: 256},
		})
	}

	// Every scripted deployment emits exactly one terminal event, so the
	// printer knows when the stream is complete without timers. A tenant
	// filter that matches nothing just stops after the batch settles.
	expectTerminals := len(specs)
	if *tenant != "" && *tenant != "acme" {
		expectTerminals = 0
	}
	printed := make(chan struct{})
	go func() {
		defer close(printed)
		terminals := 0
		for ev := range events {
			line := fmt.Sprintf("%-12s %-9s -> %-9s", ev.Workload, ev.From, ev.State)
			if ev.Node != "" {
				line += " on " + ev.Node
			}
			if ev.Detail != "" {
				line += "  (" + ev.Detail + ")"
			}
			fmt.Fprintln(out, line)
			if ev.Terminal() {
				if terminals++; terminals == expectTerminals {
					return
				}
			}
		}
	}()

	fmt.Fprintf(out, "watching deploy.lifecycle (%d scripted deploys)...\n", len(specs))
	handles := make([]*client.Deployment, 0, len(specs))
	for _, spec := range specs {
		d, err := cli.DeployAsync(context.Background(), spec)
		if err != nil {
			return err
		}
		handles = append(handles, d)
	}
	for _, d := range handles {
		_, _ = d.Await(context.Background())
	}
	if expectTerminals == 0 {
		cancel() // nothing will ever match the filter; stop the stream
	}
	<-printed
	return nil
}

// runCordon marks a node unschedulable (or schedulable with -undo) and
// shows the resulting fleet table.
func runCordon(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("genioctl cordon", flag.ContinueOnError)
	fs.SetOutput(out)
	conn := addConnFlags(fs)
	node := fs.String("node", "olt-01", "node to cordon")
	undo := fs.Bool("undo", false, "uncordon instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cli, closeCli, err := conn.newClient(3)
	if err != nil {
		return err
	}
	defer closeCli()
	ctx := context.Background()
	verb := "cordoned"
	if *undo {
		err = cli.Uncordon(ctx, *node)
		verb = "uncordoned"
	} else {
		err = cli.Cordon(ctx, *node)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "node %s %s\n\n", *node, verb)
	return printFleet(out, cli, false, "")
}

// runDrain live-migrates a node's workloads through the scheduler,
// printing each migration.
func runDrain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("genioctl drain", flag.ContinueOnError)
	fs.SetOutput(out)
	conn := addConnFlags(fs)
	node := fs.String("node", "olt-01", "node to drain")
	timeout := fs.Duration("timeout", 0, "context deadline for the drain (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Default binpack stacks the fixture workloads, so the drained node
	// is the hot one.
	cli, closeCli, err := conn.newClient(4)
	if err != nil {
		return err
	}
	defer closeCli()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fmt.Fprintf(out, "draining %s...\n", *node)
	res, derr := cli.Drain(ctx, *node)
	if res == nil {
		return derr // refused outright (unknown node): no drain ever started
	}
	for _, m := range res.Migrations {
		fmt.Fprintf(out, "  migrated  %-10s -> %s (score %.3f)\n", m.Workload, m.Target, m.Score)
	}
	if derr != nil {
		fmt.Fprintf(out, "drain stopped: %v (%d migrated, %d remaining; cordon rolled back)\n",
			derr, len(res.Migrated), len(res.Remaining))
	} else {
		fmt.Fprintf(out, "drained: %d workload(s) migrated; %s stays cordoned\n", len(res.Migrated), *node)
	}
	fmt.Fprintln(out)
	return printFleet(out, cli, false, "")
}

// runNodes prints the fleet table; -top adds the scheduler's score
// columns for a probe demand. On a federated control plane -cluster
// narrows to one member; the default shows every member, grouped.
func runNodes(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("genioctl nodes", flag.ContinueOnError)
	fs.SetOutput(out)
	conn := addConnFlags(fs)
	top := fs.Bool("top", false, "include per-node placement scores for a probe demand")
	cluster := fs.String("cluster", "", "federation cluster to show (default: all, grouped)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cli, closeCli, err := conn.newClient(3)
	if err != nil {
		return err
	}
	defer closeCli()
	return printFleet(out, cli, *top, *cluster)
}

// printFleet renders the fleet table from the client; with scores it
// asks the control plane to explain a 500m/512MB probe under both
// strategies. Rows from a federated fleet carry cluster labels and are
// grouped under per-cluster headings; single-cluster output is
// unchanged.
func printFleet(out io.Writer, cli *client.HTTP, scores bool, cluster string) error {
	var probe *api.Resources
	if scores {
		probe = &api.Resources{CPUMilli: 500, MemoryMB: 512}
	}
	nodes, err := cli.Nodes(context.Background(), probe, cluster)
	if err != nil {
		return err
	}
	header := fmt.Sprintf("%-8s %-12s %-14s %-4s %-9s", "NODE", "CPU(m)", "MEM(MB)", "WLS", "STATE")
	if scores {
		header += fmt.Sprintf(" %-8s %-8s", "BINPACK", "SPREAD")
	}
	fmt.Fprintln(out, header)
	lastCluster := ""
	for _, n := range nodes {
		if n.Cluster != "" && n.Cluster != lastCluster {
			fmt.Fprintf(out, "[cluster %s]\n", n.Cluster)
			lastCluster = n.Cluster
		}
		state := "ready"
		if n.Cordoned {
			state = "cordoned"
		}
		line := fmt.Sprintf("%-8s %5d/%-6d %6d/%-7d %-4d %-9s",
			n.Node, n.Used.CPUMilli, n.Capacity.CPUMilli,
			n.Used.MemoryMB, n.Capacity.MemoryMB, n.Workloads, state)
		if scores {
			line += fmt.Sprintf(" %-8s %-8s", renderScore(n.Binpack), renderScore(n.Spread))
		}
		fmt.Fprintln(out, line)
	}
	return nil
}

// runClusters lists the placement domains — federation members, or the
// single default cluster — and with -evacuate re-places a failed
// member's workloads across the survivors.
func runClusters(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("genioctl clusters", flag.ContinueOnError)
	fs.SetOutput(out)
	conn := addConnFlags(fs)
	evacuate := fs.String("evacuate", "", "evacuate the named cluster: re-place its workloads and remove it from the federation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cli, closeCli, err := conn.newClient(0)
	if err != nil {
		return err
	}
	defer closeCli()
	ctx := context.Background()
	if *evacuate != "" {
		res, err := cli.Evacuate(ctx, *evacuate)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "cluster %s evacuated: %d moved, %d lost\n",
			res.Cluster, len(res.Moved), len(res.Lost))
		for _, m := range res.Moved {
			fmt.Fprintf(out, "  moved %-12s (%s) -> %s/%s\n", m.Workload, m.Tenant, m.To, m.Node)
		}
		for _, l := range res.Lost {
			fmt.Fprintf(out, "  LOST  %-12s (%s)\n", l.Workload, l.Reason)
		}
		fmt.Fprintln(out)
	}
	infos, err := cli.Clusters(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-10s %-10s %-6s %-4s\n", "CLUSTER", "REGION", "NODES", "WLS")
	for _, ci := range infos {
		region := ci.Region
		if region == "" {
			region = "-"
		}
		fmt.Fprintf(out, "%-10s %-10s %-6d %-4d\n", ci.Name, region, ci.Nodes, ci.Workloads)
	}
	return nil
}

// renderScore formats one probe score for the table (nil = infeasible).
func renderScore(s *float64) string {
	if s == nil {
		return "-"
	}
	return fmt.Sprintf("%.3f", *s)
}

// runDemo is the classic demo driver.
func runDemo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("genioctl", flag.ContinueOnError)
	fs.SetOutput(out)
	posture := fs.String("posture", "secure", "platform posture: secure | legacy")
	campaign := fs.Bool("campaign", false, "additionally run the T1-T8 attack campaign")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The flag parse stops at the first non-flag word: a leftover one is a
	// mistyped or removed subcommand, never a reason to boot the demo.
	if fs.NArg() > 0 {
		names := make([]string, len(subcommands))
		for i, sc := range subcommands {
			names[i] = sc.name
		}
		return fmt.Errorf("unknown subcommand %q (subcommands: %s)", fs.Arg(0), strings.Join(names, ", "))
	}

	cfg, err := parsePosture(*posture)
	if err != nil {
		return err
	}

	p, err := core.New(cfg)
	if err != nil {
		return fmt.Errorf("platform: %w", err)
	}
	defer p.Close()
	fmt.Fprintf(out, "GENIO platform up in %q posture\n\n", *posture)

	for _, node := range []string{"olt-01", "olt-02"} {
		n, err := p.AddEdgeNode(node, orchestrator.Resources{CPUMilli: 16000, MemoryMB: 32768})
		if err != nil {
			return fmt.Errorf("edge node %s: %w", node, err)
		}
		fmt.Fprintf(out, "edge node %s provisioned (attested=%v, storage-locked=%v)\n",
			node, n.Attested, n.Volume.Locked())
	}
	for i := 1; i <= 4; i++ {
		serial := fmt.Sprintf("onu-%04d", i)
		if _, err := p.AttachONU("olt-01", serial); err != nil {
			return fmt.Errorf("onu %s: %w", serial, err)
		}
		fmt.Fprintf(out, "far-edge %s onboarded on olt-01\n", serial)
	}

	// A business user publishes a signed image; a tenant deploys it.
	pub, err := container.NewPublisher("acme")
	if err != nil {
		return err
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	img := container.AnalyticsImage()
	sig := pub.Sign(img)
	p.Registry.Push(img, &sig)
	p.Registry.Push(container.CryptominerImage(), nil) // adversary upload

	p.RBAC.SetRole(rbac.Role{Name: "acme-deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
	}})
	if err := p.RBAC.Bind("acme-ci", "acme-deployer"); err != nil {
		return err
	}

	if _, err := p.DeployContext(context.Background(), "acme-ci", orchestrator.WorkloadSpec{
		Name: "analytics", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	}); err != nil {
		return fmt.Errorf("deploy analytics: %w", err)
	}
	fmt.Fprintln(out, "\nworkload acme/analytics deployed")

	if _, err := p.DeployContext(context.Background(), "acme-ci", orchestrator.WorkloadSpec{
		Name: "optimizer", Tenant: "acme", ImageRef: "freestuff/optimizer:latest",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 500, MemoryMB: 512},
	}); err != nil {
		fmt.Fprintf(out, "hostile image rejected: %v\n", err)
	} else {
		fmt.Fprintln(out, "hostile image ADMITTED (no admission scanning in this posture)")
	}

	// Runtime traffic: benign, then an exploited workload.
	p.ObserveRuntime(trace.BenignWebTrace("analytics", "acme", 25))
	p.ObserveRuntime(trace.ReverseShellTrace("analytics", "acme"))

	fmt.Fprintln(out)
	fmt.Fprintln(out, p.RenderDeployment())
	fmt.Fprintln(out, p.RenderArchitecture())

	fmt.Fprintln(out, "incident log:")
	incidents := p.Incidents()
	if len(incidents) == 0 {
		fmt.Fprintln(out, "  (empty — nothing was blocked or detected)")
	}
	for _, i := range incidents {
		flag := "detected"
		if i.Blocked {
			flag = "BLOCKED"
		}
		fmt.Fprintf(out, "  [%-9s] %-8s %s\n", i.Source, flag, i.Detail)
	}

	fmt.Fprintln(out, "\nevent spine (published/delivered/dropped per topic):")
	p.Flush()
	stats := p.Metrics()
	for _, topic := range stats.Topics() {
		ts := stats[topic]
		if ts.Published == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-12s %d/%d/%d\n", topic, ts.Published, ts.Delivered, ts.Dropped)
	}

	if *campaign {
		fmt.Fprintln(out, "\nrunning T1-T8 attack campaign...")
		c, err := attack.NewCampaign(p)
		if err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		results := c.Run()
		for _, r := range results {
			fmt.Fprintf(out, "  %-3s %-42s %-9s %s\n", r.ThreatID, r.Attack, r.Outcome, r.Detail)
		}
		s := attack.Summary(results)
		fmt.Fprintf(out, "summary: blocked=%d detected=%d missed=%d\n",
			s[attack.OutcomeBlocked], s[attack.OutcomeDetected], s[attack.OutcomeMissed])
	}
	return nil
}
