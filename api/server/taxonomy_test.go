package server_test

// Table-driven coverage of the control-plane error taxonomy over the
// wire: every rejection path of the deploy pipeline, deployed through
// client.HTTP against a loopback api/server, must reach the client as an
// errors.As-able typed error that errors.Is-matches both its specific
// sentinel and the ErrRejected umbrella (cancellation matches
// ErrCancelled instead), plus the DeployBatch partial-failure ordering
// determinism check. This is what lets a remote genioctl branch on
// errors.Is/As exactly like in-process callers.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"genio/api"
	"genio/api/client"
	"genio/api/server"
	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/orchestrator"
	"genio/internal/rbac"
)

// taxonomyWorld is a platform served on a loopback listener that trusts
// the subject header, so each case can deploy as whom it needs.
type taxonomyWorld struct {
	p   *core.Platform
	url string
}

// client returns a wire client acting as subject, closed with the test.
func (w *taxonomyWorld) client(t *testing.T, subject string) *client.HTTP {
	cli := client.NewHTTP(w.url, client.WithSubject(subject))
	t.Cleanup(func() { cli.Close() })
	return cli
}

// newTaxonomyWorld builds a secure platform with every fixture image
// signed by the trusted publisher (so each scanner's rejection path is
// reachable), one unsigned hostile image, and scoped deploy rights, and
// serves it on a loopback listener.
func newTaxonomyWorld(t *testing.T) *taxonomyWorld {
	t.Helper()
	p, err := core.New(core.SecureConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if _, err := p.AddEdgeNode("olt-01", orchestrator.Resources{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	pub, err := container.NewPublisher("acme")
	if err != nil {
		t.Fatal(err)
	}
	p.Registry.TrustPublisher("acme", pub.PublicKey())
	for _, img := range []*container.Image{
		container.AnalyticsImage(),   // clean
		container.IoTGatewayImage(),  // sast-gate rejects (hardcoded credential)
		container.MLInferenceImage(), // sca-gate rejects (exploitable critical CVE)
		container.CryptominerImage(), // malware-scan rejects
	} {
		sig := pub.Sign(img)
		p.Registry.Push(img, &sig)
	}
	p.Registry.Push(container.BackdoorImage(), nil) // unsigned
	p.RBAC.SetRole(rbac.Role{Name: "acme-deployer", Permissions: []rbac.Permission{
		{Verb: "create", Resource: "workloads", Namespace: "acme"},
	}})
	if err := p.RBAC.Bind("ci", "acme-deployer"); err != nil {
		t.Fatal(err)
	}
	p.Cluster.SetQuota("acme", orchestrator.Resources{CPUMilli: 3000, MemoryMB: 6144})
	url, stop, err := server.New(p, server.Options{AllowAnonymous: true}).ServeLoopback()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return &taxonomyWorld{p: p, url: url}
}

func taxonomySpec(name, ref string, cpu, mem int) api.WorkloadSpec {
	return api.WorkloadSpec{
		Name: name, Tenant: "acme", ImageRef: ref,
		Isolation: api.IsolationSoft,
		Resources: api.Resources{CPUMilli: cpu, MemoryMB: mem},
	}
}

// deploy runs spec through the wire as subject ci.
func (w *taxonomyWorld) deploy(t *testing.T, spec api.WorkloadSpec) error {
	_, err := w.client(t, "ci").Deploy(context.Background(), spec)
	return err
}

func TestErrorTaxonomyCoversEveryRejectionPath(t *testing.T) {
	tests := []struct {
		name string
		// deploy returns the error under test, as the client decoded
		// it, against a fresh platform.
		deploy func(t *testing.T, w *taxonomyWorld) error
		// as asserts the concrete type (errors.As) and may inspect it.
		as func(t *testing.T, err error)
		// is lists sentinels that must match; notIs must not.
		is    []error
		notIs []error
		// counters is the cluster's Counters() after deploy: admitted,
		// rejected. Every rejection counts once; a cancellation and a
		// call refused before the cluster count zero.
		counters [2]int
	}{
		{
			name: "malware scanner rejection",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				return w.deploy(t, taxonomySpec("miner", "freestuff/optimizer:latest", 100, 128))
			},
			as: func(t *testing.T, err error) {
				var adm *orchestrator.AdmissionError
				if !errors.As(err, &adm) {
					t.Fatalf("want *AdmissionError, got %T: %v", err, err)
				}
				rej := adm.Rejections()
				if len(rej) == 0 || rej[0].Scanner != "malware-scan" {
					t.Fatalf("rejections = %+v, want malware-scan first", rej)
				}
				if len(adm.Verdicts) < 4 {
					t.Fatalf("verdict vector has %d entries, want the full chain", len(adm.Verdicts))
				}
			},
			is:       []error{orchestrator.ErrDenied, orchestrator.ErrRejected},
			notIs:    []error{orchestrator.ErrCancelled, orchestrator.ErrQuotaExceeded},
			counters: [2]int{0, 1},
		},
		{
			name: "sast scanner rejection",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				return w.deploy(t, taxonomySpec("gw", "acme/iot-gateway:1.4.2", 100, 128))
			},
			as: func(t *testing.T, err error) {
				var adm *orchestrator.AdmissionError
				if !errors.As(err, &adm) {
					t.Fatalf("want *AdmissionError, got %T: %v", err, err)
				}
				if rej := adm.Rejections(); len(rej) == 0 || rej[0].Scanner != "sast-gate" {
					t.Fatalf("rejections = %+v, want sast-gate", rej)
				}
			},
			is:       []error{orchestrator.ErrDenied, orchestrator.ErrRejected},
			counters: [2]int{0, 1},
		},
		{
			name: "sca scanner rejection",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				return w.deploy(t, taxonomySpec("ml", "acme/ml-inference:0.9.0", 100, 128))
			},
			as: func(t *testing.T, err error) {
				var adm *orchestrator.AdmissionError
				if !errors.As(err, &adm) {
					t.Fatalf("want *AdmissionError, got %T: %v", err, err)
				}
				if rej := adm.Rejections(); len(rej) == 0 || rej[0].Scanner != "sca-gate" {
					t.Fatalf("rejections = %+v, want sca-gate", rej)
				}
			},
			is:       []error{orchestrator.ErrDenied, orchestrator.ErrRejected},
			counters: [2]int{0, 1},
		},
		{
			name: "unsigned image at pull",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				return w.deploy(t, taxonomySpec("backdoor", "freestuff/log-shipper:3.1", 100, 128))
			},
			as: func(t *testing.T, err error) {
				var pull *orchestrator.ImagePullError
				if !errors.As(err, &pull) {
					t.Fatalf("want *ImagePullError, got %T: %v", err, err)
				}
				if pull.Ref != "freestuff/log-shipper:3.1" {
					t.Fatalf("ref = %q", pull.Ref)
				}
			},
			is:       []error{container.ErrUnsigned, orchestrator.ErrRejected},
			notIs:    []error{orchestrator.ErrDenied},
			counters: [2]int{0, 1},
		},
		{
			name: "unknown image at pull",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				return w.deploy(t, taxonomySpec("ghost", "ghost/unknown:0.0", 100, 128))
			},
			as: func(t *testing.T, err error) {
				var pull *orchestrator.ImagePullError
				if !errors.As(err, &pull) {
					t.Fatalf("want *ImagePullError, got %T: %v", err, err)
				}
			},
			is:       []error{container.ErrNotFound, orchestrator.ErrRejected},
			counters: [2]int{0, 1},
		},
		{
			name: "tenant quota exceeded",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				return w.deploy(t, taxonomySpec("hog", "acme/analytics:2.0.1", 3500, 128))
			},
			as: func(t *testing.T, err error) {
				var quota *orchestrator.QuotaError
				if !errors.As(err, &quota) {
					t.Fatalf("want *QuotaError, got %T: %v", err, err)
				}
				if quota.Tenant != "acme" || quota.Quota.CPUMilli != 3000 || quota.Requested.CPUMilli != 3500 {
					t.Fatalf("quota arithmetic = %+v", quota)
				}
			},
			is:       []error{orchestrator.ErrQuotaExceeded, orchestrator.ErrRejected},
			notIs:    []error{orchestrator.ErrNoCapacity},
			counters: [2]int{0, 1},
		},
		{
			name: "no node capacity",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				w.p.Cluster.SetQuota("acme", orchestrator.Resources{}) // unlimited: isolate capacity
				return w.deploy(t, taxonomySpec("big", "acme/analytics:2.0.1", 100000, 128))
			},
			as: func(t *testing.T, err error) {
				var capa *orchestrator.CapacityError
				if !errors.As(err, &capa) {
					t.Fatalf("want *CapacityError, got %T: %v", err, err)
				}
				if capa.Nodes != 1 || capa.Requested.CPUMilli != 100000 {
					t.Fatalf("capacity detail = %+v", capa)
				}
			},
			is:       []error{orchestrator.ErrNoCapacity, orchestrator.ErrRejected},
			counters: [2]int{0, 1},
		},
		{
			name: "rbac denial",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				_, err := w.client(t, "stranger").Deploy(context.Background(), taxonomySpec("spy", "acme/analytics:2.0.1", 100, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var unauth *orchestrator.UnauthorizedError
				if !errors.As(err, &unauth) {
					t.Fatalf("want *UnauthorizedError, got %T: %v", err, err)
				}
				if unauth.Subject != "stranger" || unauth.Tenant != "acme" {
					t.Fatalf("unauthorized detail = %+v", unauth)
				}
			},
			is:       []error{orchestrator.ErrUnauthorized, orchestrator.ErrRejected},
			counters: [2]int{0, 1},
		},
		{
			name: "duplicate workload name",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				if err := w.deploy(t, taxonomySpec("dup", "acme/analytics:2.0.1", 100, 128)); err != nil {
					t.Fatalf("first deploy: %v", err)
				}
				return w.deploy(t, taxonomySpec("dup", "acme/analytics:2.0.1", 100, 128))
			},
			as: func(t *testing.T, err error) {
				var dup *orchestrator.DuplicateNameError
				if !errors.As(err, &dup) {
					t.Fatalf("want *DuplicateNameError, got %T: %v", err, err)
				}
				if dup.Workload != "dup" {
					t.Fatalf("workload = %q", dup.Workload)
				}
			},
			is:       []error{orchestrator.ErrDuplicateName, orchestrator.ErrRejected},
			counters: [2]int{1, 1},
		},
		{
			name: "negative resource demand",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				return w.deploy(t, taxonomySpec("neg", "acme/analytics:2.0.1", -100000, -100000))
			},
			as: func(t *testing.T, err error) {
				var demand *orchestrator.InvalidDemandError
				if !errors.As(err, &demand) {
					t.Fatalf("want *InvalidDemandError, got %T: %v", err, err)
				}
				if demand.Workload != "neg" || demand.Requested.CPUMilli != -100000 || demand.Requested.MemoryMB != -100000 {
					t.Fatalf("demand detail = %+v", demand)
				}
			},
			is:    []error{orchestrator.ErrRejected},
			notIs: []error{orchestrator.ErrQuotaExceeded, orchestrator.ErrNoCapacity},
			// The platform refuses it, as in process: counted once.
			counters: [2]int{0, 1},
		},
		{
			name: "unknown placement policy",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				spec := taxonomySpec("typo", "acme/analytics:2.0.1", 100, 128)
				spec.PlacementPolicy = "round-robin"
				return w.deploy(t, spec)
			},
			as: func(t *testing.T, err error) {
				var policy *orchestrator.PlacementPolicyError
				if !errors.As(err, &policy) {
					t.Fatalf("want *PlacementPolicyError, got %T: %v", err, err)
				}
				if policy.Workload != "typo" || policy.Policy != "round-robin" {
					t.Fatalf("policy detail = %+v", policy)
				}
			},
			is:       []error{orchestrator.ErrRejected},
			notIs:    []error{orchestrator.ErrNoCapacity},
			counters: [2]int{0, 1},
		},
		{
			name: "closed platform",
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				w.p.Close()
				return w.deploy(t, taxonomySpec("late", "acme/analytics:2.0.1", 100, 128))
			},
			as: func(t *testing.T, err error) {
				var closed *core.ClosedError
				if !errors.As(err, &closed) {
					t.Fatalf("want *ClosedError, got %T: %v", err, err)
				}
			},
			is:       []error{events.ErrClosed},
			notIs:    []error{orchestrator.ErrRejected},
			counters: [2]int{0, 0},
		},
		{
			name: "cancelled before start",
			// A sync deploy whose context dies ends at the client's own
			// transport; the typed cancellation reaches a client through a
			// future. A gate holds the deploy in admission until the
			// client's cancel lands, so nothing is placed or counted.
			deploy: func(t *testing.T, w *taxonomyWorld) error {
				entered := make(chan struct{})
				w.p.Cluster.RegisterAdmissionCtx("test-gate",
					func(ctx context.Context, _ orchestrator.WorkloadSpec, _ *container.Image) error {
						close(entered)
						<-ctx.Done()
						return ctx.Err()
					})
				ctx := context.Background()
				d, err := w.client(t, "ci").DeployAsync(ctx, taxonomySpec("never", "acme/analytics:2.0.1", 100, 128))
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				<-entered
				if err := d.Cancel(ctx); err != nil {
					t.Fatalf("cancel: %v", err)
				}
				_, err = d.Await(ctx)
				return err
			},
			as: func(t *testing.T, err error) {
				var cancelled *orchestrator.CancelledError
				if !errors.As(err, &cancelled) {
					t.Fatalf("want *CancelledError, got %T: %v", err, err)
				}
			},
			is:       []error{orchestrator.ErrCancelled, context.Canceled},
			notIs:    []error{orchestrator.ErrRejected, orchestrator.ErrDenied},
			counters: [2]int{0, 0},
		},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w := newTaxonomyWorld(t)
			err := tc.deploy(t, w)
			if err == nil {
				t.Fatal("deploy succeeded; want typed rejection")
			}
			tc.as(t, err)
			if admitted, rejected := w.p.Cluster.Counters(); [2]int{admitted, rejected} != tc.counters {
				t.Errorf("Counters() = %d admitted, %d rejected; want %v", admitted, rejected, tc.counters)
			}
			for _, sentinel := range tc.is {
				if !errors.Is(err, sentinel) {
					t.Errorf("errors.Is(%v, %v) = false, want true", err, sentinel)
				}
			}
			for _, sentinel := range tc.notIs {
				if errors.Is(err, sentinel) {
					t.Errorf("errors.Is(%v, %v) = true, want false", err, sentinel)
				}
			}

		})
	}
}

// TestDeployBatchPartialFailureOrdering: the batch's positional results
// classify identically run after run — the fan-out over futures must not
// perturb which spec gets which typed error.
func TestDeployBatchPartialFailureOrdering(t *testing.T) {
	classify := func(err error) string {
		switch {
		case err == nil:
			return "placed"
		case errors.Is(err, orchestrator.ErrDenied):
			return "denied"
		case errors.Is(err, container.ErrUnsigned):
			return "unsigned"
		case errors.Is(err, orchestrator.ErrQuotaExceeded):
			return "quota"
		default:
			return fmt.Sprintf("other(%v)", err)
		}
	}
	want := []string{"placed", "denied", "unsigned", "placed", "denied"}
	for run := 0; run < 3; run++ {
		w := newTaxonomyWorld(t)
		specs := []api.WorkloadSpec{
			taxonomySpec("b0", "acme/analytics:2.0.1", 100, 128),
			taxonomySpec("b1", "freestuff/optimizer:latest", 100, 128),
			taxonomySpec("b2", "freestuff/log-shipper:3.1", 100, 128),
			taxonomySpec("b3", "acme/analytics:2.0.1", 100, 128),
			taxonomySpec("b4", "acme/iot-gateway:1.4.2", 100, 128),
		}
		results, err := w.client(t, "ci").DeployBatch(context.Background(), specs)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if len(results) != len(specs) {
			t.Fatalf("run %d: %d results for %d specs", run, len(results), len(specs))
		}
		for i, res := range results {
			if got := classify(res.Err); got != want[i] {
				t.Fatalf("run %d spec %d: classified %q, want %q", run, i, got, want[i])
			}
			if (res.Workload != nil) == (res.Err != nil) {
				t.Fatalf("run %d spec %d: exactly one of workload/err must be set", run, i)
			}
		}
	}
}
