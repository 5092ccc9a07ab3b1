package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"genio/internal/container"
	"genio/internal/core"
	"genio/internal/federation"
	"genio/internal/orchestrator"
)

// Wire codes: one stable machine-readable code per control-plane error
// class. Codes are the compatibility contract — clients switch on them,
// and Decode reconstructs the library's typed error from them — so a
// code, once shipped, never changes meaning.
const (
	CodeAdmissionDenied = "admission-denied"
	CodeImagePull       = "image-pull"
	CodeQuotaExceeded   = "quota-exceeded"
	CodeNoCapacity      = "no-capacity"
	CodeUnauthorized    = "unauthorized"
	CodeDuplicateName   = "duplicate-name"
	CodeNodeNotFound    = "node-not-found"
	CodePlacementPolicy = "placement-policy"
	CodeCancelled       = "cancelled"
	CodeDrainBlocked    = "drain-blocked"
	CodeRegionPinned    = "region-pinned"
	CodeFedCapacity     = "federation-capacity"
	CodeClusterNotFound = "cluster-not-found"
	CodeClosed          = "platform-closed"
	CodeBadRequest      = "bad-request"
	CodeUnauthenticated = "unauthenticated"
	// CodeSessionExpired is the recoverable subset of unauthenticated:
	// the session token is no longer live. Clients re-handshake (POST
	// /v2/session) and retry instead of surfacing an auth failure.
	CodeSessionExpired = "session-expired"
	CodeInternal       = "internal"
)

// Cause discriminators for wire errors whose library form wraps a
// sentinel that Error() alone cannot recover.
const (
	// ImagePullError causes.
	CauseImageNotFound = "not-found"
	CauseImageUnsigned = "unsigned"
	CauseBadSignature  = "bad-signature"
	// CancelledError causes.
	CauseCanceled = "canceled"
	CauseDeadline = "deadline"
	// NodeNotFoundError causes: which package's sentinel the error
	// carried (core.ErrNoNode vs orchestrator.ErrNodeUnknown).
	CauseNodeCore    = "core"
	CauseNodeCluster = "cluster"
)

// httpStatus maps each wire code to a distinct HTTP status, so a client
// that only looks at the status line still distinguishes every class.
// 499 (client closed request, nginx convention) reports cancellation —
// the caller withdrew, nobody refused.
var httpStatus = map[string]int{
	CodeAdmissionDenied: http.StatusUnprocessableEntity, // 422
	CodeImagePull:       http.StatusFailedDependency,    // 424
	CodeQuotaExceeded:   http.StatusTooManyRequests,     // 429
	CodeNoCapacity:      http.StatusInsufficientStorage, // 507
	CodeUnauthorized:    http.StatusForbidden,           // 403
	CodeDuplicateName:   http.StatusConflict,            // 409
	CodeNodeNotFound:    http.StatusNotFound,            // 404
	CodePlacementPolicy: http.StatusBadRequest,          // 400
	CodeCancelled:       499,
	CodeDrainBlocked:    http.StatusLocked, // 423
	// 451: a data-residency pin is a legal/policy constraint, not a
	// resource one, so it gets the legal-reasons status.
	CodeRegionPinned:    http.StatusUnavailableForLegalReasons, // 451
	CodeFedCapacity:     http.StatusBadGateway,                 // 502: no cluster behind the federation could take it
	CodeClusterNotFound: http.StatusNotFound,                   // 404 (shared with node-not-found; Decode switches on Code)
	CodeClosed:          http.StatusServiceUnavailable,         // 503
	CodeBadRequest:      http.StatusBadRequest,                 // 400
	CodeUnauthenticated: http.StatusUnauthorized,               // 401
	CodeSessionExpired:  http.StatusUnauthorized,               // 401 (shared with unauthenticated; clients switch on Code)
	CodeInternal:        http.StatusInternalServerError,
}

// HTTPStatus returns the status for a wire code (500 for unknown
// codes).
func HTTPStatus(code string) int {
	if s, ok := httpStatus[code]; ok {
		return s
	}
	return http.StatusInternalServerError
}

// WireError is the JSON error body of every non-2xx control-plane
// response. Code selects the class; Message is the library error's
// formatted text; the remaining fields carry the typed error's
// structured payload so Decode can rebuild it losslessly.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`

	Workload string `json:"workload,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Node     string `json:"node,omitempty"`
	Subject  string `json:"subject,omitempty"`
	Verb     string `json:"verb,omitempty"`
	Ref      string `json:"ref,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Stage    string `json:"stage,omitempty"`
	Op       string `json:"op,omitempty"`
	Cause    string `json:"cause,omitempty"`

	Verdicts  []orchestrator.ScannerVerdict `json:"verdicts,omitempty"`
	Requested *Resources                    `json:"requested,omitempty"`
	Used      *Resources                    `json:"used,omitempty"`
	Quota     *Resources                    `json:"quota,omitempty"`
	Nodes     int                           `json:"nodes,omitempty"`

	// Federation payloads: Region is a tenant's pinned region,
	// RequestedRegion the region a refused deploy asked for, Cluster a
	// federation member name, Clusters the eligible-member count an
	// exhausted placement walked.
	Region          string `json:"region,omitempty"`
	RequestedRegion string `json:"requestedRegion,omitempty"`
	Cluster         string `json:"cluster,omitempty"`
	Clusters        int    `json:"clusters,omitempty"`

	// Wrapped carries a nested wire error (DrainError's scheduling
	// cause).
	Wrapped *WireError `json:"wrapped,omitempty"`
}

// Error makes *WireError usable as an error directly (a client that
// skips Decode still gets the server-side message).
func (e *WireError) Error() string {
	if e.Message != "" {
		return e.Message
	}
	return "api: " + e.Code
}

// Status returns the HTTP status for the error's code.
func (e *WireError) Status() int { return HTTPStatus(e.Code) }

func wireResources(r orchestrator.Resources) *Resources {
	return &Resources{CPUMilli: r.CPUMilli, MemoryMB: r.MemoryMB}
}

func libResources(r *Resources) orchestrator.Resources {
	if r == nil {
		return orchestrator.Resources{}
	}
	return orchestrator.Resources{CPUMilli: r.CPUMilli, MemoryMB: r.MemoryMB}
}

// Encode maps a control-plane error to its wire form. Every type in the
// taxonomy gets a distinct code; anything unrecognized becomes
// CodeInternal with the message preserved, and a *WireError (what Decode
// returns for codes with no library form) encodes as itself. Nil maps
// to nil.
//
// The outermost typed error in the wrap chain names the class: a
// DrainError wrapping a capacity failure is drain-blocked, a
// FederationCapacityError wrapping a member's CapacityError is
// federation-capacity, whatever the wrapped error is — so Encode(Decode(we))
// keeps we's code.
func Encode(err error) *WireError {
	if err == nil {
		return nil
	}
	for e := err; e != nil; e = errors.Unwrap(e) {
		if we := encodeTyped(err, e); we != nil {
			return we
		}
	}
	switch {
	case errors.Is(err, context.Canceled):
		return &WireError{Code: CodeCancelled, Message: err.Error(), Cause: CauseCanceled}
	case errors.Is(err, context.DeadlineExceeded):
		return &WireError{Code: CodeCancelled, Message: err.Error(), Cause: CauseDeadline}
	default:
		return &WireError{Code: CodeInternal, Message: err.Error()}
	}
}

// encodeTyped encodes err by e, one link of its wrap chain, when e is a
// type of the taxonomy; nil otherwise.
func encodeTyped(err, e error) *WireError {
	switch e := e.(type) {
	case *WireError:
		return e
	case *federation.RegionPinnedError:
		return &WireError{
			Code:            CodeRegionPinned,
			Message:         err.Error(),
			Workload:        e.Workload,
			Tenant:          e.Tenant,
			Region:          e.Region,
			RequestedRegion: e.Requested,
		}
	case *federation.FederationCapacityError:
		return &WireError{
			Code:     CodeFedCapacity,
			Message:  err.Error(),
			Workload: e.Workload,
			Tenant:   e.Tenant,
			Region:   e.Region,
			Clusters: e.Clusters,
			Wrapped:  Encode(e.Err),
		}
	case *federation.ClusterNotFoundError:
		return &WireError{Code: CodeClusterNotFound, Message: err.Error(), Cluster: e.Cluster}
	case *core.ClosedError:
		return &WireError{Code: CodeClosed, Message: err.Error(), Op: e.Op}
	case *orchestrator.CancelledError:
		we := &WireError{
			Code:     CodeCancelled,
			Message:  err.Error(),
			Workload: e.Workload,
			Stage:    e.Stage,
		}
		switch {
		case errors.Is(e.Err, context.DeadlineExceeded):
			we.Cause = CauseDeadline
		case errors.Is(e.Err, context.Canceled):
			we.Cause = CauseCanceled
		}
		return we
	case *orchestrator.DrainError:
		return &WireError{
			Code:     CodeDrainBlocked,
			Message:  err.Error(),
			Node:     e.Node,
			Workload: e.Workload,
			Wrapped:  Encode(e.Err),
		}
	case *orchestrator.AdmissionError:
		return &WireError{
			Code:     CodeAdmissionDenied,
			Message:  err.Error(),
			Workload: e.Workload,
			Tenant:   e.Tenant,
			Verdicts: e.Verdicts,
		}
	case *orchestrator.ImagePullError:
		we := &WireError{Code: CodeImagePull, Message: err.Error(), Ref: e.Ref}
		switch {
		case errors.Is(e.Err, container.ErrNotFound):
			we.Cause = CauseImageNotFound
		case errors.Is(e.Err, container.ErrBadSignature):
			we.Cause = CauseBadSignature
		case errors.Is(e.Err, container.ErrUnsigned):
			we.Cause = CauseImageUnsigned
		}
		return we
	case *orchestrator.QuotaError:
		return &WireError{
			Code:      CodeQuotaExceeded,
			Message:   err.Error(),
			Tenant:    e.Tenant,
			Requested: wireResources(e.Requested),
			Used:      wireResources(e.Used),
			Quota:     wireResources(e.Quota),
		}
	case *orchestrator.CapacityError:
		return &WireError{
			Code:      CodeNoCapacity,
			Message:   err.Error(),
			Workload:  e.Workload,
			Requested: wireResources(e.Requested),
			Nodes:     e.Nodes,
		}
	case *orchestrator.UnauthorizedError:
		return &WireError{
			Code:    CodeUnauthorized,
			Message: err.Error(),
			Subject: e.Subject,
			Verb:    e.Verb,
			Tenant:  e.Tenant,
		}
	case *orchestrator.DuplicateNameError:
		return &WireError{Code: CodeDuplicateName, Message: err.Error(), Workload: e.Workload}
	case *orchestrator.NodeNotFoundError:
		we := &WireError{Code: CodeNodeNotFound, Message: err.Error(), Node: e.Node}
		switch {
		case errors.Is(e, core.ErrNoNode):
			we.Cause = CauseNodeCore
		case errors.Is(e, orchestrator.ErrNodeUnknown):
			we.Cause = CauseNodeCluster
		}
		return we
	case *orchestrator.PlacementPolicyError:
		return &WireError{
			Code:     CodePlacementPolicy,
			Message:  err.Error(),
			Workload: e.Workload,
			Policy:   e.Policy,
		}
	case *orchestrator.InvalidDemandError:
		return &WireError{
			Code:      CodeBadRequest,
			Message:   err.Error(),
			Workload:  e.Workload,
			Requested: wireResources(e.Requested),
		}
	}
	return nil
}

// Decode reconstructs the library's typed error from a wire error. The
// result satisfies the same errors.Is/errors.As assertions as the error
// the server encoded: sentinels (ErrRejected, ErrDenied, ErrCancelled,
// ErrNoCapacity, container.ErrUnsigned, core.ErrNoNode, ...) survive
// the round trip. Unknown codes come back as the *WireError itself.
// Nil maps to nil.
func Decode(we *WireError) error {
	if we == nil {
		return nil
	}
	switch we.Code {
	case CodeAdmissionDenied:
		return &orchestrator.AdmissionError{
			Workload: we.Workload,
			Tenant:   we.Tenant,
			Verdicts: we.Verdicts,
		}
	case CodeImagePull:
		var cause error
		switch we.Cause {
		case CauseImageNotFound:
			cause = container.ErrNotFound
		case CauseBadSignature:
			cause = container.ErrBadSignature
		case CauseImageUnsigned:
			cause = container.ErrUnsigned
		default:
			cause = errors.New(we.Message)
		}
		// The registry wraps its sentinels with detail (which ref, which
		// publisher); Message still has it, so the decoded cause keeps it.
		if detail, ok := strings.CutPrefix(we.Message, "pull "+we.Ref+": "+cause.Error()); ok && detail != "" {
			cause = fmt.Errorf("%w%s", cause, detail)
		}
		return &orchestrator.ImagePullError{Ref: we.Ref, Err: cause}
	case CodeQuotaExceeded:
		return &orchestrator.QuotaError{
			Tenant:    we.Tenant,
			Requested: libResources(we.Requested),
			Used:      libResources(we.Used),
			Quota:     libResources(we.Quota),
		}
	case CodeNoCapacity:
		return &orchestrator.CapacityError{
			Workload:  we.Workload,
			Requested: libResources(we.Requested),
			Nodes:     we.Nodes,
		}
	case CodeUnauthorized:
		return &orchestrator.UnauthorizedError{Subject: we.Subject, Verb: we.Verb, Tenant: we.Tenant}
	case CodeDuplicateName:
		return &orchestrator.DuplicateNameError{Workload: we.Workload}
	case CodeNodeNotFound:
		sentinel := orchestrator.ErrNodeUnknown
		if we.Cause == CauseNodeCore {
			sentinel = core.ErrNoNode
		}
		return &orchestrator.NodeNotFoundError{Node: we.Node, Err: sentinel}
	case CodePlacementPolicy:
		return &orchestrator.PlacementPolicyError{Workload: we.Workload, Policy: we.Policy}
	case CodeCancelled:
		var cause error
		switch we.Cause {
		case CauseDeadline:
			cause = context.DeadlineExceeded
		default:
			cause = context.Canceled
		}
		return &orchestrator.CancelledError{Workload: we.Workload, Stage: we.Stage, Err: cause}
	case CodeRegionPinned:
		return &federation.RegionPinnedError{
			Workload:  we.Workload,
			Tenant:    we.Tenant,
			Region:    we.Region,
			Requested: we.RequestedRegion,
		}
	case CodeFedCapacity:
		return &federation.FederationCapacityError{
			Workload: we.Workload,
			Tenant:   we.Tenant,
			Region:   we.Region,
			Clusters: we.Clusters,
			Err:      Decode(we.Wrapped),
		}
	case CodeClusterNotFound:
		return &federation.ClusterNotFoundError{Cluster: we.Cluster}
	case CodeDrainBlocked:
		cause := Decode(we.Wrapped)
		if cause == nil {
			cause = errors.New(we.Message)
		}
		return &orchestrator.DrainError{Node: we.Node, Workload: we.Workload, Err: cause}
	case CodeClosed:
		return &core.ClosedError{Op: we.Op}
	case CodeBadRequest:
		// The one typed bad request carries its demand; the server's own
		// malformed-input refusals have no library form.
		if we.Requested == nil {
			return we
		}
		return &orchestrator.InvalidDemandError{Workload: we.Workload, Requested: libResources(we.Requested)}
	default:
		return we
	}
}
