package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"genio/api"
	"genio/api/server"
	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/demo"
	"genio/internal/orchestrator"
	"genio/internal/pki"
)

// startRemote hosts a demo-fixture geniod surface on an httptest server
// and writes a signed client identity, returning what the remote-mode
// flags need: the base URL and the identity path.
func startRemote(t *testing.T) (baseURL, idPath string, p *core.Platform) {
	t.Helper()
	p, err := demo.Platform(core.SecureConfig(), "genioctl")
	if err != nil {
		t.Fatalf("demo platform: %v", err)
	}
	srv := server.New(p, server.Options{CA: p.CA})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
		p.Close()
	})
	id, err := p.CA.Issue("genioctl", pki.RoleService)
	if err != nil {
		t.Fatalf("issue identity: %v", err)
	}
	idPath = filepath.Join(t.TempDir(), "genioctl.id")
	if err := api.SaveIdentity(idPath, id); err != nil {
		t.Fatalf("save identity: %v", err)
	}
	return ts.URL, idPath, p
}

// TestDeployRemotePlaced runs the deploy subcommand against a remote
// control plane and expects output identical to local mode.
func TestDeployRemotePlaced(t *testing.T) {
	url, id, _ := startRemote(t)
	var buf bytes.Buffer
	if err := run([]string{"deploy", "-server", url, "-identity", id,
		"-image", "acme/analytics:2.0.1", "-name", "rweb", "-wait"}, &buf); err != nil {
		t.Fatalf("remote deploy: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{"scanning", "placing", "running", "PLACED: rweb on olt-01"} {
		if !strings.Contains(out, needle) {
			t.Errorf("remote deploy output missing %q:\n%s", needle, out)
		}
	}
}

// TestDeployRemoteTypedVerdicts proves the typed admission verdicts
// survive the wire: the remote rejection renders the same per-scanner
// table the in-process path does.
func TestDeployRemoteTypedVerdicts(t *testing.T) {
	url, id, _ := startRemote(t)
	var buf bytes.Buffer
	if err := run([]string{"deploy", "-server", url, "-identity", id,
		"-image", "acme/iot-gateway:1.4.2", "-name", "rflagged"}, &buf); err != nil {
		t.Fatalf("remote deploy: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{
		"REJECTED by admission (workload rflagged)",
		"[FAIL] sast-gate",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("remote deploy output missing %q:\n%s", needle, out)
		}
	}
}

// TestDeployRemoteSIGINTCancels is the cancelled-but-never-placed path
// over the wire: Ctrl-C while the deployment is held in admission must
// withdraw it server-side and report the typed cancellation.
func TestDeployRemoteSIGINTCancels(t *testing.T) {
	url, id, p := startRemote(t)
	entered := make(chan struct{}, 1)
	p.Cluster.RegisterAdmissionCtx("sigint-gate",
		func(ctx context.Context, s orchestrator.WorkloadSpec, _ *container.Image) error {
			if s.Name != "doomed" {
				return nil
			}
			entered <- struct{}{}
			<-ctx.Done()
			return ctx.Err()
		})
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"deploy", "-server", url, "-identity", id,
			"-image", "acme/analytics:2.0.1", "-name", "doomed"}, &buf)
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("deployment never reached admission:\n%s", buf.String())
	}
	// The gate fires when the server-side pipeline reaches admission,
	// which can beat the 202 back to the client; give the submit round
	// trip a moment so the SIGINT cancels the await, not the POST.
	time.Sleep(200 * time.Millisecond)
	// The CLI's signal handler is installed before the deployment is
	// submitted, so by the time admission holds it SIGINT is safe.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("deploy after SIGINT: %v\n%s", err, buf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("deploy did not return after SIGINT:\n%s", buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "CANCELLED (cancelled) during") || !strings.Contains(out, "never placed") {
		t.Errorf("missing typed cancellation:\n%s", out)
	}
	if _, ok := p.Cluster.Workload("doomed"); ok {
		t.Error("cancelled deployment left a placed workload behind")
	}
}

// TestDeployRemoteDeadlineExpired is TestDeploySubcommandDeadlineExpired
// over the wire: a deadline that expires before the submit reaches the
// daemon reports the typed cancellation, not the transport's error, and
// places nothing.
func TestDeployRemoteDeadlineExpired(t *testing.T) {
	url, id, p := startRemote(t)
	var buf bytes.Buffer
	if err := run([]string{"deploy", "-server", url, "-identity", id,
		"-image", "acme/analytics:2.0.1", "-name", "late", "-timeout", "1ns"}, &buf); err != nil {
		t.Fatalf("remote deploy: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "CANCELLED (deadline exceeded) during submit") || !strings.Contains(out, "never placed") {
		t.Errorf("missing typed cancellation:\n%s", out)
	}
	if _, ok := p.Cluster.Workload("late"); ok {
		t.Error("deployment whose submit was cancelled got placed")
	}
}

// TestWatchRemote streams scripted deployments' lifecycle over SSE.
func TestWatchRemote(t *testing.T) {
	url, id, _ := startRemote(t)
	var buf bytes.Buffer
	if err := run([]string{"watch", "-server", url, "-identity", id, "-deploys", "3"}, &buf); err != nil {
		t.Fatalf("remote watch: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{
		"watching deploy.lifecycle (3 scripted deploys)",
		"-> running",
		"-> rejected",
		"watched-00",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("remote watch output missing %q:\n%s", needle, out)
		}
	}
}

// TestDrainRemote live-migrates a remote node and prints the same
// migration log local mode does.
func TestDrainRemote(t *testing.T) {
	url, id, p := startRemote(t)
	if err := demo.Workloads(p, "genioctl", 4); err != nil {
		t.Fatalf("fixture workloads: %v", err)
	}
	var buf bytes.Buffer
	if err := run([]string{"drain", "-server", url, "-identity", id, "-node", "olt-01"}, &buf); err != nil {
		t.Fatalf("remote drain: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{"draining olt-01", "migrated", "-> olt-02", "stays cordoned"} {
		if !strings.Contains(out, needle) {
			t.Errorf("remote drain output missing %q:\n%s", needle, out)
		}
	}
}

// TestNodesTopRemote renders the score table from the remote Explain.
func TestNodesTopRemote(t *testing.T) {
	url, id, _ := startRemote(t)
	var buf bytes.Buffer
	if err := run([]string{"nodes", "-server", url, "-identity", id, "-top"}, &buf); err != nil {
		t.Fatalf("remote nodes: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{"NODE", "BINPACK", "SPREAD", "olt-01", "olt-02", "ready"} {
		if !strings.Contains(out, needle) {
			t.Errorf("remote nodes -top output missing %q:\n%s", needle, out)
		}
	}
}

func TestSecurePosture(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-posture", "secure"}, &buf); err != nil {
		t.Fatalf("run secure: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{
		"attested=true",
		"hostile image rejected",
		"BLOCKED",
		"FAR-EDGE",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("secure output missing %q", needle)
		}
	}
}

func TestLegacyPosture(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-posture", "legacy"}, &buf); err != nil {
		t.Fatalf("run legacy: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "hostile image ADMITTED") {
		t.Error("legacy posture should admit the hostile image")
	}
	if !strings.Contains(out, "attested=false") {
		t.Error("legacy nodes should not attest")
	}
	if !strings.Contains(out, "(empty — nothing was blocked or detected)") {
		t.Error("legacy incident log should be empty")
	}
}

func TestCampaignFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-posture", "secure", "-campaign"}, &buf); err != nil {
		t.Fatalf("run campaign: %v", err)
	}
	if !strings.Contains(buf.String(), "missed=0") {
		t.Errorf("secure campaign should miss nothing:\n%s", buf.String())
	}
}

func TestUnknownPosture(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-posture", "chaotic"}, &buf); err == nil {
		t.Fatal("unknown posture accepted")
	}
}

func TestDeploySubcommandPlaced(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"deploy", "-image", "acme/analytics:2.0.1", "-name", "web", "-wait"}, &buf); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{"scanning", "placing", "running", "PLACED: web on olt-01"} {
		if !strings.Contains(out, needle) {
			t.Errorf("deploy output missing %q:\n%s", needle, out)
		}
	}
}

func TestDeploySubcommandTypedVerdicts(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"deploy", "-image", "acme/iot-gateway:1.4.2", "-name", "flagged"}, &buf); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{
		"REJECTED by admission (workload flagged)",
		"[FAIL] sast-gate",
		"[pass] malware-scan",
		"[pass] sca-gate",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("deploy output missing %q:\n%s", needle, out)
		}
	}
}

func TestDeploySubcommandPullRejection(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"deploy", "-image", "freestuff/log-shipper:3.1"}, &buf); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if !strings.Contains(buf.String(), "REJECTED at pull: freestuff/log-shipper:3.1") {
		t.Errorf("missing typed pull rejection:\n%s", buf.String())
	}
}

func TestWatchSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"watch", "-deploys", "4"}, &buf); err != nil {
		t.Fatalf("watch: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{
		"watching deploy.lifecycle (4 scripted deploys)",
		"-> running",
		"-> rejected",
		"watched-00",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("watch output missing %q:\n%s", needle, out)
		}
	}
}

func TestWatchSubcommandTenantFilterMiss(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"watch", "-deploys", "2", "-tenant", "nobody"}, &buf); err != nil {
		t.Fatalf("watch: %v", err)
	}
	if strings.Contains(buf.String(), "-> running") {
		t.Errorf("tenant filter leaked events:\n%s", buf.String())
	}
}

func TestDeploySubcommandDeadlineExpired(t *testing.T) {
	var buf bytes.Buffer
	// A 1ns deadline is expired before the pipeline starts: the future
	// must terminate cancelled without placing anything.
	if err := run([]string{"deploy", "-image", "acme/analytics:2.0.1", "-timeout", "1ns"}, &buf); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "CANCELLED (deadline exceeded)") || !strings.Contains(out, "never placed") {
		t.Errorf("missing typed cancellation:\n%s", out)
	}
}

func TestDeploySubcommandQuotaRejection(t *testing.T) {
	var buf bytes.Buffer
	// The secure posture applies a 2000m default tenant quota; 3000m
	// trips the typed quota rejection.
	if err := run([]string{"deploy", "-image", "acme/analytics:2.0.1", "-cpu", "3000"}, &buf); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if !strings.Contains(buf.String(), "REJECTED by quota: tenant acme") {
		t.Errorf("missing typed quota rejection:\n%s", buf.String())
	}
}

func TestNodesTopSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"nodes", "-top"}, &buf); err != nil {
		t.Fatalf("nodes: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{"NODE", "BINPACK", "SPREAD", "olt-01", "olt-02", "ready"} {
		if !strings.Contains(out, needle) {
			t.Errorf("nodes -top output missing %q:\n%s", needle, out)
		}
	}
}

func TestCordonSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"cordon", "-node", "olt-02"}, &buf); err != nil {
		t.Fatalf("cordon: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "node olt-02 cordoned") || !strings.Contains(out, "cordoned") {
		t.Errorf("cordon output:\n%s", out)
	}
	buf.Reset()
	if err := run([]string{"cordon", "-node", "olt-02", "-undo"}, &buf); err != nil {
		t.Fatalf("uncordon: %v", err)
	}
	if !strings.Contains(buf.String(), "node olt-02 uncordoned") {
		t.Errorf("uncordon output:\n%s", buf.String())
	}
}

func TestDrainSubcommand(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"drain", "-node", "olt-01"}, &buf); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := buf.String()
	for _, needle := range []string{"draining olt-01", "migrated", "-> olt-02", "stays cordoned"} {
		if !strings.Contains(out, needle) {
			t.Errorf("drain output missing %q:\n%s", needle, out)
		}
	}
}

// TestFleetReadsIdenticalDaemonlessAndRemote: the fleet reads render the
// same bytes whether genioctl hosts the demo platform itself or talks to
// a daemon serving the same fixture — one client, one server-side
// mapping, so there is nothing to drift.
func TestFleetReadsIdenticalDaemonlessAndRemote(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		workloads int // what the daemon-less subcommand seeds
	}{
		{[]string{"nodes", "-top"}, 3},
		{[]string{"slots"}, 3},
		{[]string{"clusters"}, 0},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			var local bytes.Buffer
			if err := run(tc.args, &local); err != nil {
				t.Fatalf("daemon-less: %v", err)
			}
			url, id, p := startRemote(t)
			if err := demo.Workloads(p, "genioctl", tc.workloads); err != nil {
				t.Fatalf("fixture workloads: %v", err)
			}
			var remote bytes.Buffer
			args := append(append([]string{}, tc.args...), "-server", url, "-identity", id)
			if err := run(args, &remote); err != nil {
				t.Fatalf("remote: %v", err)
			}
			if local.Len() == 0 || !bytes.Equal(local.Bytes(), remote.Bytes()) {
				t.Errorf("output differs\n--- daemon-less\n%s--- remote\n%s", local.String(), remote.String())
			}
		})
	}
}

// TestLoopbackClientClose: Close on the daemon-less client tears down
// everything the command brought up — the platform refuses typed, the
// loopback listener is gone, the server's watch feeder has exited — and
// a second Close is harmless.
func TestLoopbackClientClose(t *testing.T) {
	cli, err := addConnFlags(flag.NewFlagSet("test", flag.ContinueOnError)).newClient(0)
	if err != nil {
		t.Fatal(err)
	}
	l := cli.(*loopback)
	ctx := context.Background()

	// A watch starts the server's event log (and its feeder goroutine).
	wctx, wcancel := context.WithCancel(ctx)
	if _, err := cli.Watch(wctx, api.WatchSelector{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Deploy(ctx, api.WorkloadSpec{
		Name: "pre-close", Tenant: "acme", ImageRef: "acme/analytics:2.0.1", Isolation: api.IsolationSoft,
		Resources: api.Resources{CPUMilli: 200, MemoryMB: 256},
	}); err != nil {
		t.Fatal(err)
	}
	wcancel()

	for i := 0; i < 2; i++ {
		if err := cli.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}

	_, err = l.p.DeployContext(ctx, "genioctl", orchestrator.WorkloadSpec{
		Name: "post-close", Tenant: "acme", ImageRef: "acme/analytics:2.0.1",
		Isolation: orchestrator.IsolationSoft,
		Resources: orchestrator.Resources{CPUMilli: 200, MemoryMB: 256},
	})
	var closed *core.ClosedError
	if !errors.As(err, &closed) {
		t.Fatalf("platform after Close: want ClosedError, got %T: %v", err, err)
	}
	if _, err := cli.Nodes(ctx, nil, ""); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("listener after Close: want connection refused, got %v", err)
	}
	// The feeder exits once it observes its cancelled watch; poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		if !bytes.Contains(stacks, []byte("server.newEventLog")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("event-log feeder still running after Close:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}
