package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/federation"
	"genio/internal/orchestrator"
)

// TestWireErrorTaxonomyRoundTrip drives every error in the control-plane
// taxonomy (internal/orchestrator/errors.go + core.ClosedError) through
// encode → JSON → decode and asserts (a) each class gets a distinct wire
// code and a distinct HTTP status, and (b) the decoded error still
// satisfies the library's errors.Is/errors.As contract.
func TestWireErrorTaxonomyRoundTrip(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		code       string
		status     int
		is         []error
		notIs      []error
		checkTyped func(t *testing.T, decoded error)
	}{
		{
			name: "admission",
			err: &orchestrator.AdmissionError{
				Workload: "wl", Tenant: "acme",
				Verdicts: []orchestrator.ScannerVerdict{
					{Scanner: "malware-scan", Passed: false, Detail: "trojan"},
					{Scanner: "sca-gate", Passed: true, Cached: true},
				},
			},
			code:   CodeAdmissionDenied,
			status: 422,
			is:     []error{orchestrator.ErrDenied, orchestrator.ErrRejected},
			notIs:  []error{orchestrator.ErrCancelled},
			checkTyped: func(t *testing.T, decoded error) {
				var ae *orchestrator.AdmissionError
				if !errors.As(decoded, &ae) {
					t.Fatalf("decoded %T, want *AdmissionError", decoded)
				}
				if len(ae.Verdicts) != 2 || ae.Verdicts[0].Detail != "trojan" || !ae.Verdicts[1].Cached {
					t.Fatalf("verdicts lost in transit: %+v", ae.Verdicts)
				}
				if ae.Tenant != "acme" || ae.Workload != "wl" {
					t.Fatalf("fields lost: %+v", ae)
				}
			},
		},
		{
			name:   "image-pull-unsigned",
			err:    &orchestrator.ImagePullError{Ref: "evil/backdoor:1.0", Err: container.ErrUnsigned},
			code:   CodeImagePull,
			status: 424,
			is:     []error{container.ErrUnsigned, orchestrator.ErrRejected},
			notIs:  []error{container.ErrNotFound, container.ErrBadSignature},
			checkTyped: func(t *testing.T, decoded error) {
				var pe *orchestrator.ImagePullError
				if !errors.As(decoded, &pe) || pe.Ref != "evil/backdoor:1.0" {
					t.Fatalf("decoded %v, want ImagePullError with ref", decoded)
				}
			},
		},
		{
			name:   "image-pull-not-found",
			err:    &orchestrator.ImagePullError{Ref: "ghost/none:1", Err: container.ErrNotFound},
			code:   CodeImagePull,
			status: 424,
			is:     []error{container.ErrNotFound, orchestrator.ErrRejected},
			notIs:  []error{container.ErrUnsigned},
		},
		{
			name: "image-pull-bad-signature",
			// Wrapped the way the registry wraps it: the detail must survive.
			err: &orchestrator.ImagePullError{Ref: "acme/tampered:1",
				Err: fmt.Errorf("%w: unknown publisher %q", container.ErrBadSignature, "mallory")},
			code:   CodeImagePull,
			status: 424,
			is:     []error{container.ErrBadSignature, orchestrator.ErrRejected},
			notIs:  []error{container.ErrNotFound},
			checkTyped: func(t *testing.T, decoded error) {
				if want := `pull acme/tampered:1: container: image signature invalid: unknown publisher "mallory"`; decoded.Error() != want {
					t.Fatalf("decoded %q, want %q", decoded.Error(), want)
				}
			},
		},
		{
			name: "quota",
			err: &orchestrator.QuotaError{
				Tenant:    "acme",
				Requested: orchestrator.Resources{CPUMilli: 2000, MemoryMB: 4096},
				Used:      orchestrator.Resources{CPUMilli: 1500, MemoryMB: 2048},
				Quota:     orchestrator.Resources{CPUMilli: 3000, MemoryMB: 6144},
			},
			code:   CodeQuotaExceeded,
			status: 429,
			is:     []error{orchestrator.ErrQuotaExceeded, orchestrator.ErrRejected},
			notIs:  []error{orchestrator.ErrNoCapacity},
			checkTyped: func(t *testing.T, decoded error) {
				var qe *orchestrator.QuotaError
				if !errors.As(decoded, &qe) {
					t.Fatalf("decoded %T, want *QuotaError", decoded)
				}
				if qe.Used.CPUMilli != 1500 || qe.Quota.MemoryMB != 6144 {
					t.Fatalf("quota arithmetic lost: %+v", qe)
				}
			},
		},
		{
			name: "capacity",
			err: &orchestrator.CapacityError{
				Workload:  "wl",
				Requested: orchestrator.Resources{CPUMilli: 64000, MemoryMB: 1},
				Nodes:     3,
			},
			code:   CodeNoCapacity,
			status: 507,
			is:     []error{orchestrator.ErrNoCapacity, orchestrator.ErrRejected},
			notIs:  []error{orchestrator.ErrQuotaExceeded},
			checkTyped: func(t *testing.T, decoded error) {
				var ce *orchestrator.CapacityError
				if !errors.As(decoded, &ce) || ce.Nodes != 3 {
					t.Fatalf("decoded %v, want CapacityError with 3 nodes", decoded)
				}
			},
		},
		{
			name:   "unauthorized",
			err:    &orchestrator.UnauthorizedError{Subject: "mallory", Verb: "create", Tenant: "acme"},
			code:   CodeUnauthorized,
			status: 403,
			is:     []error{orchestrator.ErrUnauthorized, orchestrator.ErrRejected},
			notIs:  []error{orchestrator.ErrDenied},
			checkTyped: func(t *testing.T, decoded error) {
				var ue *orchestrator.UnauthorizedError
				if !errors.As(decoded, &ue) || ue.Subject != "mallory" {
					t.Fatalf("decoded %v, want UnauthorizedError for mallory", decoded)
				}
			},
		},
		{
			name:   "duplicate-name",
			err:    &orchestrator.DuplicateNameError{Workload: "wl"},
			code:   CodeDuplicateName,
			status: 409,
			is:     []error{orchestrator.ErrDuplicateName, orchestrator.ErrRejected},
			notIs:  []error{orchestrator.ErrDenied},
		},
		{
			name:   "node-not-found-cluster",
			err:    &orchestrator.NodeNotFoundError{Node: "ghost", Err: orchestrator.ErrNodeUnknown},
			code:   CodeNodeNotFound,
			status: 404,
			is:     []error{orchestrator.ErrNodeUnknown},
			notIs:  []error{core.ErrNoNode, orchestrator.ErrRejected},
		},
		{
			name:   "node-not-found-core",
			err:    &orchestrator.NodeNotFoundError{Node: "ghost", Err: core.ErrNoNode},
			code:   CodeNodeNotFound,
			status: 404,
			is:     []error{core.ErrNoNode},
			notIs:  []error{orchestrator.ErrNodeUnknown},
		},
		{
			name:   "placement-policy",
			err:    &orchestrator.PlacementPolicyError{Workload: "wl", Policy: "tightpack"},
			code:   CodePlacementPolicy,
			status: 400,
			is:     []error{orchestrator.ErrRejected},
			notIs:  []error{orchestrator.ErrNoCapacity},
			checkTyped: func(t *testing.T, decoded error) {
				var pe *orchestrator.PlacementPolicyError
				if !errors.As(decoded, &pe) || pe.Policy != "tightpack" {
					t.Fatalf("decoded %v, want PlacementPolicyError tightpack", decoded)
				}
			},
		},
		{
			name:   "cancelled",
			err:    &orchestrator.CancelledError{Workload: "wl", Stage: "admission", Err: context.Canceled},
			code:   CodeCancelled,
			status: 499,
			is:     []error{orchestrator.ErrCancelled, context.Canceled},
			notIs:  []error{orchestrator.ErrRejected, context.DeadlineExceeded},
			checkTyped: func(t *testing.T, decoded error) {
				var ce *orchestrator.CancelledError
				if !errors.As(decoded, &ce) || ce.Stage != "admission" {
					t.Fatalf("decoded %v, want CancelledError at admission", decoded)
				}
			},
		},
		{
			name:   "deadline",
			err:    &orchestrator.CancelledError{Workload: "wl", Stage: "reservation", Err: context.DeadlineExceeded},
			code:   CodeCancelled,
			status: 499,
			is:     []error{orchestrator.ErrCancelled, context.DeadlineExceeded},
			notIs:  []error{context.Canceled},
		},
		{
			name: "drain-blocked",
			err: &orchestrator.DrainError{
				Node: "olt-01", Workload: "wl",
				Err: &orchestrator.CapacityError{Workload: "wl", Requested: orchestrator.Resources{CPUMilli: 9000}, Nodes: 1},
			},
			code:   CodeDrainBlocked,
			status: 423,
			is:     []error{orchestrator.ErrNoCapacity},
			notIs:  []error{orchestrator.ErrCancelled},
			checkTyped: func(t *testing.T, decoded error) {
				var de *orchestrator.DrainError
				if !errors.As(decoded, &de) || de.Node != "olt-01" {
					t.Fatalf("decoded %v, want DrainError on olt-01", decoded)
				}
				var ce *orchestrator.CapacityError
				if !errors.As(de.Err, &ce) || ce.Requested.CPUMilli != 9000 {
					t.Fatalf("nested cause lost: %v", de.Err)
				}
			},
		},
		{
			name:   "closed",
			err:    &core.ClosedError{Op: "Deploy"},
			code:   CodeClosed,
			status: 503,
			is:     []error{events.ErrClosed},
			notIs:  []error{orchestrator.ErrRejected},
			checkTyped: func(t *testing.T, decoded error) {
				var ce *core.ClosedError
				if !errors.As(decoded, &ce) || ce.Op != "Deploy" {
					t.Fatalf("decoded %v, want ClosedError for Deploy", decoded)
				}
			},
		},
		{
			name:   "internal",
			err:    errors.New("disk on fire"),
			code:   CodeInternal,
			status: 500,
		},
	}

	codes := map[string]string{}   // code -> first case name (dup detection per class)
	statuses := map[int]string{}   // status -> code
	classSeen := map[string]bool{} // code for which is/status uniqueness already checked
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			we := Encode(tc.err)
			if we.Code != tc.code {
				t.Fatalf("code = %q, want %q", we.Code, tc.code)
			}
			if got := we.Status(); got != tc.status {
				t.Fatalf("status = %d, want %d", got, tc.status)
			}
			if we.Message != tc.err.Error() {
				t.Fatalf("message = %q, want %q", we.Message, tc.err.Error())
			}
			// Distinctness: every error class maps to its own code, and
			// every code to its own status.
			if !classSeen[tc.code] {
				classSeen[tc.code] = true
				if prev, dup := codes[tc.code]; dup {
					t.Fatalf("code %q already used by class %q", tc.code, prev)
				}
				codes[tc.code] = tc.name
				if prev, dup := statuses[tc.status]; dup {
					t.Fatalf("status %d already used by code %q", tc.status, prev)
				}
				statuses[tc.status] = tc.code
			}

			// Round trip through actual JSON, as the wire would.
			data, err := json.Marshal(we)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back WireError
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			decoded := Decode(&back)
			if decoded.Error() == "" {
				t.Fatal("decoded error has empty message")
			}
			for _, want := range tc.is {
				if !errors.Is(decoded, want) {
					t.Errorf("errors.Is(decoded, %v) = false, want true", want)
				}
			}
			for _, not := range tc.notIs {
				if errors.Is(decoded, not) {
					t.Errorf("errors.Is(decoded, %v) = true, want false", not)
				}
			}
			if tc.checkTyped != nil {
				tc.checkTyped(t, decoded)
			}
		})
	}
}

// TestInvalidDemandErrorRoundTrip sits outside the main table because
// bad-request shares HTTP 400 with placement-policy. The typed demand
// rejection survives the wire; the server's own untyped bad requests
// (no demand attached) decode to the *WireError itself.
func TestInvalidDemandErrorRoundTrip(t *testing.T) {
	orig := &orchestrator.InvalidDemandError{
		Workload: "wl", Requested: orchestrator.Resources{CPUMilli: -100000, MemoryMB: 128},
	}
	we := Encode(orig)
	if we.Code != CodeBadRequest || we.Status() != 400 || we.Message != orig.Error() {
		t.Fatalf("encoded = %+v, want 400 %s carrying the library message", we, CodeBadRequest)
	}
	data, err := json.Marshal(we)
	if err != nil {
		t.Fatal(err)
	}
	var back WireError
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	decoded := Decode(&back)
	var derr *orchestrator.InvalidDemandError
	if !errors.As(decoded, &derr) || *derr != *orig {
		t.Fatalf("decoded %v, want %+v", decoded, orig)
	}
	if !errors.Is(decoded, orchestrator.ErrRejected) || errors.Is(decoded, orchestrator.ErrNoCapacity) {
		t.Fatalf("decoded %v must match ErrRejected only", decoded)
	}
	plain := &WireError{Code: CodeBadRequest, Message: "bad request body: EOF"}
	if got := Decode(plain); got != error(plain) {
		t.Fatalf("untyped bad request decoded to %T, want the *WireError itself", got)
	}
}

// TestFederationErrorTaxonomyRoundTrip covers the federation error
// classes separately from the main table: cluster-not-found
// deliberately shares HTTP 404 with node-not-found (Decode switches on
// Code, not status), so the main table's one-status-per-code
// distinctness check does not apply here.
func TestFederationErrorTaxonomyRoundTrip(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		code       string
		status     int
		is         []error
		notIs      []error
		checkTyped func(t *testing.T, decoded error)
	}{
		{
			name: "region-pinned",
			err: &federation.RegionPinnedError{
				Workload: "wl", Tenant: "gov", Region: "region-a", Requested: "region-b",
			},
			code:   CodeRegionPinned,
			status: 451,
			is:     []error{federation.ErrRegionPinned, orchestrator.ErrRejected},
			notIs:  []error{orchestrator.ErrNoCapacity, federation.ErrClusterNotFound},
			checkTyped: func(t *testing.T, decoded error) {
				var pe *federation.RegionPinnedError
				if !errors.As(decoded, &pe) {
					t.Fatalf("decoded %T, want *RegionPinnedError", decoded)
				}
				if pe.Tenant != "gov" || pe.Region != "region-a" || pe.Requested != "region-b" || pe.Workload != "wl" {
					t.Fatalf("fields lost: %+v", pe)
				}
			},
		},
		{
			name: "federation-capacity",
			err: &federation.FederationCapacityError{
				Workload: "wl", Tenant: "acme", Region: "region-b", Clusters: 3,
				Err: &orchestrator.CapacityError{Workload: "wl", Nodes: 12},
			},
			code:   CodeFedCapacity,
			status: 502,
			is:     []error{orchestrator.ErrNoCapacity, orchestrator.ErrRejected},
			notIs:  []error{federation.ErrRegionPinned},
			checkTyped: func(t *testing.T, decoded error) {
				var fe *federation.FederationCapacityError
				if !errors.As(decoded, &fe) {
					t.Fatalf("decoded %T, want *FederationCapacityError", decoded)
				}
				if fe.Tenant != "acme" || fe.Region != "region-b" || fe.Clusters != 3 {
					t.Fatalf("fields lost: %+v", fe)
				}
				// The last per-cluster capacity error survives the nested
				// wire encoding as a typed error, not a flat string.
				var ce *orchestrator.CapacityError
				if !errors.As(fe.Err, &ce) || ce.Nodes != 12 {
					t.Fatalf("wrapped capacity cause lost: %v", fe.Err)
				}
			},
		},
		{
			name:   "cluster-not-found",
			err:    &federation.ClusterNotFoundError{Cluster: "edge-x"},
			code:   CodeClusterNotFound,
			status: 404,
			is:     []error{federation.ErrClusterNotFound, orchestrator.ErrNotFound},
			notIs:  []error{orchestrator.ErrRejected, orchestrator.ErrNodeUnknown},
			checkTyped: func(t *testing.T, decoded error) {
				var ce *federation.ClusterNotFoundError
				if !errors.As(decoded, &ce) {
					t.Fatalf("decoded %T, want *ClusterNotFoundError", decoded)
				}
				if ce.Cluster != "edge-x" {
					t.Fatalf("cluster name lost: %+v", ce)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			we := Encode(tc.err)
			if we.Code != tc.code {
				t.Fatalf("code = %q, want %q", we.Code, tc.code)
			}
			if got := we.Status(); got != tc.status {
				t.Fatalf("status = %d, want %d", got, tc.status)
			}
			if we.Message != tc.err.Error() {
				t.Fatalf("message = %q, want %q", we.Message, tc.err.Error())
			}
			data, err := json.Marshal(we)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back WireError
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			decoded := Decode(&back)
			for _, want := range tc.is {
				if !errors.Is(decoded, want) {
					t.Errorf("errors.Is(decoded, %v) = false, want true", want)
				}
			}
			for _, not := range tc.notIs {
				if errors.Is(decoded, not) {
					t.Errorf("errors.Is(decoded, %v) = true, want false", not)
				}
			}
			if tc.checkTyped != nil {
				tc.checkTyped(t, decoded)
			}
		})
	}
}

func TestEncodeNil(t *testing.T) {
	if Encode(nil) != nil {
		t.Fatal("Encode(nil) != nil")
	}
	if Decode(nil) != nil {
		t.Fatal("Decode(nil) != nil")
	}
}

func TestDecodeUnknownCodeIsWireError(t *testing.T) {
	we := &WireError{Code: "from-the-future", Message: "novel failure"}
	decoded := Decode(we)
	var back *WireError
	if !errors.As(decoded, &back) || back.Code != "from-the-future" {
		t.Fatalf("decoded = %v, want the wire error itself", decoded)
	}
	if HTTPStatus("from-the-future") != 500 {
		t.Fatal("unknown code should map to 500")
	}
}

// TestContextSentinelsEncodeAsCancelled covers the bare-context path:
// a handler whose request context died before the pipeline wrapped it.
func TestContextSentinelsEncodeAsCancelled(t *testing.T) {
	if we := Encode(context.Canceled); we.Code != CodeCancelled || we.Cause != CauseCanceled {
		t.Fatalf("Encode(context.Canceled) = %+v", we)
	}
	if we := Encode(context.DeadlineExceeded); we.Code != CodeCancelled || we.Cause != CauseDeadline {
		t.Fatalf("Encode(context.DeadlineExceeded) = %+v", we)
	}
}
