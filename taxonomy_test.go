package genio_test

// Table-driven coverage of the control-plane error taxonomy: every
// rejection path of the deploy pipeline must return an errors.As-able
// typed error that errors.Is-matches both its specific sentinel and the
// ErrRejected umbrella (cancellation matches ErrCancelled instead), plus
// the DeployBatch partial-failure ordering determinism check.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"genio"
	"genio/api"
	"genio/internal/container"
	"genio/internal/rbac"
)

// taxonomyPlatform builds a secure platform with every fixture image
// signed by the trusted publisher (so each scanner's rejection path is
// reachable), one unsigned hostile image, and scoped deploy rights.
func taxonomyPlatform(t *testing.T) *genio.Platform {
	t.Helper()
	p, err := genio.NewPlatform(genio.SecureConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if _, err := p.AddEdgeNode("olt-01", genio.Resources{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
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
	p.Cluster.SetQuota("acme", genio.Resources{CPUMilli: 3000, MemoryMB: 6144})
	return p
}

func taxonomySpec(name, ref string, cpu, mem int) genio.WorkloadSpec {
	return genio.WorkloadSpec{
		Name: name, Tenant: "acme", ImageRef: ref,
		Isolation: genio.IsolationSoft,
		Resources: genio.Resources{CPUMilli: cpu, MemoryMB: mem},
	}
}

func TestErrorTaxonomyCoversEveryRejectionPath(t *testing.T) {
	tests := []struct {
		name string
		// deploy returns the error under test against a fresh platform.
		deploy func(t *testing.T, p *genio.Platform) error
		// as asserts the concrete type (errors.As) and may inspect it.
		as func(t *testing.T, err error)
		// is lists sentinels that must match; notIs must not.
		is    []error
		notIs []error
	}{
		{
			name: "malware scanner rejection",
			deploy: func(t *testing.T, p *genio.Platform) error {
				_, err := p.DeployContext(context.Background(), "ci", taxonomySpec("miner", "freestuff/optimizer:latest", 100, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var adm *genio.AdmissionError
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
			is:    []error{genio.ErrDenied, genio.ErrRejected},
			notIs: []error{genio.ErrCancelled, genio.ErrQuotaExceeded},
		},
		{
			name: "sast scanner rejection",
			deploy: func(t *testing.T, p *genio.Platform) error {
				_, err := p.DeployContext(context.Background(), "ci", taxonomySpec("gw", "acme/iot-gateway:1.4.2", 100, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var adm *genio.AdmissionError
				if !errors.As(err, &adm) {
					t.Fatalf("want *AdmissionError, got %T: %v", err, err)
				}
				if rej := adm.Rejections(); len(rej) == 0 || rej[0].Scanner != "sast-gate" {
					t.Fatalf("rejections = %+v, want sast-gate", rej)
				}
			},
			is: []error{genio.ErrDenied, genio.ErrRejected},
		},
		{
			name: "sca scanner rejection",
			deploy: func(t *testing.T, p *genio.Platform) error {
				_, err := p.DeployContext(context.Background(), "ci", taxonomySpec("ml", "acme/ml-inference:0.9.0", 100, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var adm *genio.AdmissionError
				if !errors.As(err, &adm) {
					t.Fatalf("want *AdmissionError, got %T: %v", err, err)
				}
				if rej := adm.Rejections(); len(rej) == 0 || rej[0].Scanner != "sca-gate" {
					t.Fatalf("rejections = %+v, want sca-gate", rej)
				}
			},
			is: []error{genio.ErrDenied, genio.ErrRejected},
		},
		{
			name: "unsigned image at pull",
			deploy: func(t *testing.T, p *genio.Platform) error {
				_, err := p.DeployContext(context.Background(), "ci", taxonomySpec("backdoor", "freestuff/log-shipper:3.1", 100, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var pull *genio.ImagePullError
				if !errors.As(err, &pull) {
					t.Fatalf("want *ImagePullError, got %T: %v", err, err)
				}
				if pull.Ref != "freestuff/log-shipper:3.1" {
					t.Fatalf("ref = %q", pull.Ref)
				}
			},
			is:    []error{container.ErrUnsigned, genio.ErrRejected},
			notIs: []error{genio.ErrDenied},
		},
		{
			name: "unknown image at pull",
			deploy: func(t *testing.T, p *genio.Platform) error {
				_, err := p.DeployContext(context.Background(), "ci", taxonomySpec("ghost", "ghost/unknown:0.0", 100, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var pull *genio.ImagePullError
				if !errors.As(err, &pull) {
					t.Fatalf("want *ImagePullError, got %T: %v", err, err)
				}
			},
			is: []error{container.ErrNotFound, genio.ErrRejected},
		},
		{
			name: "tenant quota exceeded",
			deploy: func(t *testing.T, p *genio.Platform) error {
				_, err := p.DeployContext(context.Background(), "ci", taxonomySpec("hog", "acme/analytics:2.0.1", 3500, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var quota *genio.QuotaError
				if !errors.As(err, &quota) {
					t.Fatalf("want *QuotaError, got %T: %v", err, err)
				}
				if quota.Tenant != "acme" || quota.Quota.CPUMilli != 3000 || quota.Requested.CPUMilli != 3500 {
					t.Fatalf("quota arithmetic = %+v", quota)
				}
			},
			is:    []error{genio.ErrQuotaExceeded, genio.ErrRejected},
			notIs: []error{genio.ErrNoCapacity},
		},
		{
			name: "no node capacity",
			deploy: func(t *testing.T, p *genio.Platform) error {
				p.Cluster.SetQuota("acme", genio.Resources{}) // unlimited: isolate capacity
				_, err := p.DeployContext(context.Background(), "ci", taxonomySpec("big", "acme/analytics:2.0.1", 100000, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var capa *genio.CapacityError
				if !errors.As(err, &capa) {
					t.Fatalf("want *CapacityError, got %T: %v", err, err)
				}
				if capa.Nodes != 1 || capa.Requested.CPUMilli != 100000 {
					t.Fatalf("capacity detail = %+v", capa)
				}
			},
			is: []error{genio.ErrNoCapacity, genio.ErrRejected},
		},
		{
			name: "rbac denial",
			deploy: func(t *testing.T, p *genio.Platform) error {
				_, err := p.DeployContext(context.Background(), "stranger", taxonomySpec("spy", "acme/analytics:2.0.1", 100, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var unauth *genio.UnauthorizedError
				if !errors.As(err, &unauth) {
					t.Fatalf("want *UnauthorizedError, got %T: %v", err, err)
				}
				if unauth.Subject != "stranger" || unauth.Tenant != "acme" {
					t.Fatalf("unauthorized detail = %+v", unauth)
				}
			},
			is: []error{genio.ErrUnauthorized, genio.ErrRejected},
		},
		{
			name: "duplicate workload name",
			deploy: func(t *testing.T, p *genio.Platform) error {
				if _, err := p.DeployContext(context.Background(), "ci", taxonomySpec("dup", "acme/analytics:2.0.1", 100, 128)); err != nil {
					t.Fatalf("first deploy: %v", err)
				}
				_, err := p.DeployContext(context.Background(), "ci", taxonomySpec("dup", "acme/analytics:2.0.1", 100, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var dup *genio.DuplicateNameError
				if !errors.As(err, &dup) {
					t.Fatalf("want *DuplicateNameError, got %T: %v", err, err)
				}
				if dup.Workload != "dup" {
					t.Fatalf("workload = %q", dup.Workload)
				}
			},
			is: []error{genio.ErrDuplicateName, genio.ErrRejected},
		},
		{
			name: "negative resource demand",
			deploy: func(t *testing.T, p *genio.Platform) error {
				_, err := p.DeployContext(context.Background(), "ci", taxonomySpec("neg", "acme/analytics:2.0.1", -100000, -100000))
				return err
			},
			as: func(t *testing.T, err error) {
				var demand *genio.InvalidDemandError
				if !errors.As(err, &demand) {
					t.Fatalf("want *InvalidDemandError, got %T: %v", err, err)
				}
				if demand.Workload != "neg" || demand.Requested.CPUMilli != -100000 || demand.Requested.MemoryMB != -100000 {
					t.Fatalf("demand detail = %+v", demand)
				}
			},
			is:    []error{genio.ErrRejected},
			notIs: []error{genio.ErrQuotaExceeded, genio.ErrNoCapacity},
		},
		{
			name: "closed platform",
			deploy: func(t *testing.T, p *genio.Platform) error {
				p.Close()
				_, err := p.DeployContext(context.Background(), "ci", taxonomySpec("late", "acme/analytics:2.0.1", 100, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var closed *genio.ClosedError
				if !errors.As(err, &closed) {
					t.Fatalf("want *ClosedError, got %T: %v", err, err)
				}
			},
			is:    []error{genio.ErrClosed},
			notIs: []error{genio.ErrRejected},
		},
		{
			name: "cancelled before start",
			deploy: func(t *testing.T, p *genio.Platform) error {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				_, err := p.DeployContext(ctx, "ci", taxonomySpec("never", "acme/analytics:2.0.1", 100, 128))
				return err
			},
			as: func(t *testing.T, err error) {
				var cancelled *genio.CancelledError
				if !errors.As(err, &cancelled) {
					t.Fatalf("want *CancelledError, got %T: %v", err, err)
				}
			},
			is:    []error{genio.ErrCancelled, context.Canceled},
			notIs: []error{genio.ErrRejected, genio.ErrDenied},
		},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := taxonomyPlatform(t)
			err := tc.deploy(t, p)
			if err == nil {
				t.Fatal("deploy succeeded; want typed rejection")
			}
			tc.as(t, err)
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

			// The same taxonomy must survive the control-plane wire: encode
			// to the JSON wire error, round-trip the bytes, decode — and
			// re-run every assertion against the reconstruction. This is
			// what lets a remote genioctl branch on errors.Is/As exactly
			// like in-process callers.
			we := api.Encode(err)
			if we == nil {
				t.Fatal("Encode returned nil for a non-nil error")
			}
			data, jerr := json.Marshal(we)
			if jerr != nil {
				t.Fatalf("marshal wire error: %v", jerr)
			}
			var back api.WireError
			if jerr := json.Unmarshal(data, &back); jerr != nil {
				t.Fatalf("unmarshal wire error: %v", jerr)
			}
			decoded := api.Decode(&back)
			if decoded == nil {
				t.Fatal("Decode returned nil")
			}
			tc.as(t, decoded)
			for _, sentinel := range tc.is {
				if !errors.Is(decoded, sentinel) {
					t.Errorf("decoded: errors.Is(%v, %v) = false, want true", decoded, sentinel)
				}
			}
			for _, sentinel := range tc.notIs {
				if errors.Is(decoded, sentinel) {
					t.Errorf("decoded: errors.Is(%v, %v) = true, want false", decoded, sentinel)
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
		case errors.Is(err, genio.ErrDenied):
			return "denied"
		case errors.Is(err, container.ErrUnsigned):
			return "unsigned"
		case errors.Is(err, genio.ErrQuotaExceeded):
			return "quota"
		default:
			return fmt.Sprintf("other(%v)", err)
		}
	}
	want := []string{"placed", "denied", "unsigned", "placed", "denied"}
	for run := 0; run < 3; run++ {
		p := taxonomyPlatform(t)
		specs := []genio.WorkloadSpec{
			taxonomySpec("b0", "acme/analytics:2.0.1", 100, 128),
			taxonomySpec("b1", "freestuff/optimizer:latest", 100, 128),
			taxonomySpec("b2", "freestuff/log-shipper:3.1", 100, 128),
			taxonomySpec("b3", "acme/analytics:2.0.1", 100, 128),
			taxonomySpec("b4", "acme/iot-gateway:1.4.2", 100, 128),
		}
		workloads, errs := p.DeployBatchContext(context.Background(), "ci", specs)
		if len(workloads) != len(specs) || len(errs) != len(specs) {
			t.Fatalf("run %d: result lengths %d/%d", run, len(workloads), len(errs))
		}
		for i := range specs {
			if got := classify(errs[i]); got != want[i] {
				t.Fatalf("run %d spec %d: classified %q, want %q", run, i, got, want[i])
			}
			if (workloads[i] != nil) == (errs[i] != nil) {
				t.Fatalf("run %d spec %d: exactly one of workload/err must be set", run, i)
			}
		}
	}
}
