package orchestrator

// Direct unit coverage of the error taxonomy vocabulary: formatting,
// sentinel matching, unwrapping, and the context-aware deploy pipeline's
// cancellation behaviour at the orchestrator level.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"genio/internal/container"
)

func TestAdmissionErrorVerdictsAndFormat(t *testing.T) {
	e := &AdmissionError{Workload: "w", Tenant: "t", Verdicts: []ScannerVerdict{
		{Scanner: "clean-gate", Passed: true, Cached: true},
		{Scanner: "first-bad", Passed: false, Detail: "reason one"},
		{Scanner: "second-bad", Passed: false, Detail: "reason two"},
	}}
	if got := e.Error(); !strings.Contains(got, "by first-bad: reason one") {
		t.Fatalf("Error() = %q, want first-registered failure", got)
	}
	rej := e.Rejections()
	if len(rej) != 2 || rej[0].Scanner != "first-bad" || rej[1].Scanner != "second-bad" {
		t.Fatalf("Rejections() = %+v", rej)
	}
	if !errors.Is(e, ErrDenied) || !errors.Is(e, ErrRejected) {
		t.Fatal("AdmissionError must match ErrDenied and ErrRejected")
	}
	if errors.Is(e, ErrCancelled) {
		t.Fatal("AdmissionError must not match ErrCancelled")
	}
	empty := &AdmissionError{Workload: "w"}
	if got := empty.Error(); got != ErrDenied.Error() {
		t.Fatalf("empty-verdict Error() = %q", got)
	}
}

func TestTypedErrorSentinelsAndUnwrap(t *testing.T) {
	cases := []struct {
		err   error
		is    []error
		notIs []error
		want  string // substring of Error()
	}{
		{
			err:  &ImagePullError{Ref: "a/b:1", Err: container.ErrUnsigned},
			is:   []error{container.ErrUnsigned, ErrRejected},
			want: "pull a/b:1",
		},
		{
			err:  &CapacityError{Workload: "w", Requested: Resources{CPUMilli: 9, MemoryMB: 9}, Nodes: 3},
			is:   []error{ErrNoCapacity, ErrRejected},
			want: "across 3 node(s)",
		},
		{
			err:  &QuotaError{Tenant: "t", Requested: Resources{CPUMilli: 5}, Quota: Resources{CPUMilli: 1}},
			is:   []error{ErrQuotaExceeded, ErrRejected},
			want: "tenant t",
		},
		{
			err:  &UnauthorizedError{Subject: "s", Verb: "create", Tenant: "t"},
			is:   []error{ErrUnauthorized, ErrRejected},
			want: "s may not create workloads in t",
		},
		{
			err:  &DuplicateNameError{Workload: "w"},
			is:   []error{ErrDuplicateName, ErrRejected},
			want: "name in use: w",
		},
		{
			err:  &NodeNotFoundError{Node: "n"},
			is:   []error{ErrNodeUnknown},
			want: "unknown node: n",
		},
		{
			err:   &CancelledError{Workload: "w", Stage: "admission", Err: context.Canceled},
			is:    []error{ErrCancelled, context.Canceled},
			notIs: []error{ErrRejected},
			want:  "during admission",
		},
		{
			err:  &CancelledError{},
			is:   []error{ErrCancelled},
			want: ErrCancelled.Error(),
		},
	}
	for _, tc := range cases {
		if got := tc.err.Error(); !strings.Contains(got, tc.want) {
			t.Errorf("%T.Error() = %q, want substring %q", tc.err, got, tc.want)
		}
		for _, s := range tc.is {
			if !errors.Is(tc.err, s) {
				t.Errorf("errors.Is(%v, %v) = false", tc.err, s)
			}
		}
		for _, s := range tc.notIs {
			if errors.Is(tc.err, s) {
				t.Errorf("errors.Is(%v, %v) = true, want false", tc.err, s)
			}
		}
	}
	// Sentinel-carrying NodeNotFoundError formats and unwraps its owner.
	custom := errors.New("owner: no node")
	nn := &NodeNotFoundError{Node: "x", Err: custom}
	if !errors.Is(nn, custom) || !strings.Contains(nn.Error(), "owner: no node: x") {
		t.Fatalf("NodeNotFoundError with custom sentinel = %q", nn.Error())
	}
}

// TestDeployContextCancelledMidAdmission exercises the orchestrator-level
// cancellation path directly: the gate controller blocks until the
// context dies, the verdict is a typed *CancelledError, nothing is
// committed to the verdict cache, and the rejected counter is untouched.
func TestDeployContextCancelledMidAdmission(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	c.AddNode("n1", Resources{CPUMilli: 4000, MemoryMB: 8192})
	reached := make(chan struct{})
	c.RegisterAdmissionCtx("gate", func(ctx context.Context, _ WorkloadSpec, _ *container.Image) error {
		close(reached)
		<-ctx.Done()
		return ctx.Err()
	})
	// A cacheable clean controller running alongside the gate: its
	// verdict must NOT be committed when the run is cancelled.
	c.RegisterAdmissionCachedCtx("clean", func(context.Context, WorkloadSpec, *container.Image) error {
		return nil
	})

	var auditMu sync.Mutex
	var kinds []string
	c.SetAuditSink(func(a AuditEvent) {
		auditMu.Lock()
		kinds = append(kinds, a.Kind)
		auditMu.Unlock()
	})

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.DeployContext(ctx, "ops", spec("w", "t", "acme/analytics:2.0.1", IsolationSoft))
		errCh <- err
	}()
	<-reached
	cancel()
	err := <-errCh

	var cancelled *CancelledError
	if !errors.As(err, &cancelled) || cancelled.Stage != "admission" {
		t.Fatalf("err = %v, want *CancelledError at admission stage", err)
	}
	if got := c.AdmissionCacheSize(); got != 0 {
		t.Fatalf("verdict cache holds %d entries after a cancelled run, want 0", got)
	}
	if _, ok := c.Workload("w"); ok {
		t.Fatal("cancelled deployment was placed")
	}
	if _, rejected := c.Counters(); rejected != 0 {
		t.Fatalf("rejected counter = %d after cancellation, want 0", rejected)
	}
	auditMu.Lock()
	defer auditMu.Unlock()
	found := false
	for _, k := range kinds {
		if k == "admission-cancelled" {
			found = true
		}
		if k == "admission-verdict" || k == "placement" {
			t.Fatalf("cancelled deploy emitted %q audit record", k)
		}
	}
	if !found {
		t.Fatalf("no admission-cancelled audit record; got %v", kinds)
	}
}

// TestDeployContextCancelInCommitWindow drives the final cancellation
// point: admission passes, the context dies before scheduling, and
// neither a quota charge nor a node-side placement is left behind.
func TestDeployContextCancelInCommitWindow(t *testing.T) {
	c, _ := testCluster(t, Settings{})
	c.AddNode("n1", Resources{CPUMilli: 4000, MemoryMB: 8192})
	ctx, cancel := context.WithCancel(context.Background())
	// The observer fires as the pipeline enters placing — cancelling
	// there lands on the check under the cluster lock.
	_, err := c.DeployObserved(ctx, "ops", spec("w", "t", "acme/analytics:2.0.1", IsolationSoft),
		func(stage DeployStage) {
			if stage == StagePlacing {
				cancel()
			}
		})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if _, ok := c.Workload("w"); ok {
		t.Fatal("cancelled deployment committed")
	}
	if use := c.TenantUsage("t"); use.CPUMilli != 0 || use.MemoryMB != 0 {
		t.Fatalf("tenant reservation leaked: %+v", use)
	}
	for _, u := range c.Utilization() {
		if u.Used.CPUMilli != 0 || u.Used.MemoryMB != 0 {
			t.Fatalf("node placement leaked: %+v", u)
		}
	}
	if len(c.VMs()) != 0 {
		t.Fatalf("VM leaked: %+v", c.VMs())
	}
	// The same cluster still admits normally afterwards.
	if _, err := c.DeployContext(context.Background(), "ops", spec("w", "t", "acme/analytics:2.0.1", IsolationSoft)); err != nil {
		t.Fatalf("redeploy after cancelled commit: %v", err)
	}
}
