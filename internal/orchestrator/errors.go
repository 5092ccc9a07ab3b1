package orchestrator

// Control-plane error taxonomy (API v2): every rejection path of the
// deploy pipeline returns a typed error carrying the structured facts a
// caller needs (per-scanner verdicts, quota arithmetic, the missing node)
// instead of a formatted string. All types stay errors.Is-compatible with
// the package sentinels, so existing `errors.Is(err, ErrDenied)` call
// sites keep working, and every rejection additionally matches the
// ErrRejected umbrella — `errors.Is(err, ErrRejected)` distinguishes "the
// control plane said no" from harness failure. Cancellation is its own
// class (ErrCancelled), deliberately outside the rejection umbrella: a
// cancelled deployment was withdrawn by its caller, not refused by the
// platform.

import (
	"errors"
	"fmt"
	"strings"
)

// Umbrella and cancellation sentinels (the per-reason sentinels —
// ErrDenied, ErrNoCapacity, ErrQuotaExceeded, ... — live in
// orchestrator.go).
var (
	// ErrRejected matches every typed rejection the deploy pipeline can
	// return: admission denial, image pull failure, quota, capacity,
	// RBAC, and duplicate names.
	ErrRejected = errors.New("orchestrator: deployment rejected")
	// ErrCancelled matches deployments aborted by context cancellation or
	// deadline expiry. Not a rejection: errors.Is(err, ErrRejected) is
	// false for cancelled deploys.
	ErrCancelled = errors.New("orchestrator: deployment cancelled")
	// ErrNodeUnknown is the sentinel behind NodeNotFoundError for cluster
	// operations addressing a node that is not (or no longer) a member.
	ErrNodeUnknown = errors.New("orchestrator: unknown node")
)

// ScannerVerdict is one admission controller's outcome within a single
// deployment, in chain registration order.
type ScannerVerdict struct {
	Scanner string `json:"scanner"`
	Passed  bool   `json:"passed"`
	// Cached is true when a clean verdict came from the per-digest cache
	// rather than a fresh scan.
	Cached bool `json:"cached,omitempty"`
	// Detail is the controller's failure message ("" when it passed).
	Detail string `json:"detail,omitempty"`
}

// AdmissionError reports an admission-chain rejection with the full
// per-scanner verdict vector. The verdict of the first-registered failing
// controller is the one the error message carries (the chain's
// deterministic aggregate), but every controller's outcome is available
// for display — genioctl prints the whole table.
type AdmissionError struct {
	Workload string
	Tenant   string
	// Verdicts holds one entry per registered controller, in registration
	// order.
	Verdicts []ScannerVerdict
}

// failing returns the first failing verdict in registration order.
func (e *AdmissionError) failing() *ScannerVerdict {
	for i := range e.Verdicts {
		if !e.Verdicts[i].Passed {
			return &e.Verdicts[i]
		}
	}
	return nil
}

// Rejections returns the verdicts of every failing controller, in
// registration order.
func (e *AdmissionError) Rejections() []ScannerVerdict {
	var out []ScannerVerdict
	for _, v := range e.Verdicts {
		if !v.Passed {
			out = append(out, v)
		}
	}
	return out
}

// Error keeps the pre-taxonomy format: the first-registered failure wins.
func (e *AdmissionError) Error() string {
	if f := e.failing(); f != nil {
		return fmt.Sprintf("%v by %s: %s", ErrDenied, f.Scanner, f.Detail)
	}
	return ErrDenied.Error()
}

// Is matches ErrDenied (compatibility) and the ErrRejected umbrella.
func (e *AdmissionError) Is(target error) bool {
	return target == ErrDenied || target == ErrRejected
}

// ImagePullError reports a registry pull failure (unknown ref, unsigned
// image, bad signature). Unwrap exposes the underlying container-package
// sentinel, so errors.Is(err, container.ErrUnsigned) keeps working.
type ImagePullError struct {
	Ref string
	Err error
}

// Error keeps the pre-taxonomy "pull <ref>: <cause>" format.
func (e *ImagePullError) Error() string { return fmt.Sprintf("pull %s: %v", e.Ref, e.Err) }

// Unwrap exposes the registry cause.
func (e *ImagePullError) Unwrap() error { return e.Err }

// Is matches the ErrRejected umbrella (the cause chain is reachable via
// Unwrap).
func (e *ImagePullError) Is(target error) bool { return target == ErrRejected }

// CapacityError reports that no node could host the workload's demand.
type CapacityError struct {
	Workload  string
	Requested Resources
	// Nodes is the number of live nodes that were considered.
	Nodes int
}

// Error keeps the ErrNoCapacity message as its prefix.
func (e *CapacityError) Error() string {
	return fmt.Sprintf("%v: %s needs cpu=%dm mem=%dMB across %d node(s)",
		ErrNoCapacity, e.Workload, e.Requested.CPUMilli, e.Requested.MemoryMB, e.Nodes)
}

// Is matches ErrNoCapacity (compatibility) and the ErrRejected umbrella.
func (e *CapacityError) Is(target error) bool {
	return target == ErrNoCapacity || target == ErrRejected
}

// QuotaError reports a tenant-quota rejection with the arithmetic that
// produced it: Used + Requested would exceed Quota.
type QuotaError struct {
	Tenant    string
	Requested Resources
	Used      Resources
	Quota     Resources
}

// Error keeps the pre-taxonomy "tenant <t>" suffix format.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("%v: tenant %s", ErrQuotaExceeded, e.Tenant)
}

// Is matches ErrQuotaExceeded (compatibility) and the ErrRejected
// umbrella.
func (e *QuotaError) Is(target error) bool {
	return target == ErrQuotaExceeded || target == ErrRejected
}

// UnauthorizedError reports an RBAC denial of a control-plane operation.
type UnauthorizedError struct {
	Subject string
	Verb    string
	Tenant  string
}

// Error keeps the pre-taxonomy message format.
func (e *UnauthorizedError) Error() string {
	return fmt.Sprintf("%v: %s may not %s workloads in %s", ErrUnauthorized, e.Subject, e.Verb, e.Tenant)
}

// Is matches ErrUnauthorized (compatibility) and the ErrRejected
// umbrella.
func (e *UnauthorizedError) Is(target error) bool {
	return target == ErrUnauthorized || target == ErrRejected
}

// DuplicateNameError reports a workload-name collision with a running or
// in-flight deployment.
type DuplicateNameError struct {
	Workload string
}

// Error keeps the pre-taxonomy message format.
func (e *DuplicateNameError) Error() string {
	return fmt.Sprintf("%v: %s", ErrDuplicateName, e.Workload)
}

// Is matches ErrDuplicateName (compatibility) and the ErrRejected
// umbrella.
func (e *DuplicateNameError) Is(target error) bool {
	return target == ErrDuplicateName || target == ErrRejected
}

// NodeNotFoundError reports an operation addressing an unknown node. Err
// carries the owning package's sentinel (ErrNodeUnknown here,
// core.ErrNoNode on the platform surface) so historical errors.Is checks
// keep passing.
type NodeNotFoundError struct {
	Node string
	Err  error
}

// Error formats "<sentinel>: <node>".
func (e *NodeNotFoundError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("%v: %s", e.Err, e.Node)
	}
	return fmt.Sprintf("%v: %s", ErrNodeUnknown, e.Node)
}

// Unwrap exposes the package sentinel.
func (e *NodeNotFoundError) Unwrap() error {
	if e.Err != nil {
		return e.Err
	}
	return ErrNodeUnknown
}

// PlacementPolicyError reports a deploy whose WorkloadSpec named an
// unknown placement policy. A rejection (matches ErrRejected): a typo'd
// policy must fail loudly, not silently take the cluster default.
type PlacementPolicyError struct {
	Workload string
	Policy   string
}

// Error names the offending policy and the accepted vocabulary.
func (e *PlacementPolicyError) Error() string {
	return fmt.Sprintf("orchestrator: unknown placement policy %q for %s (want %s|%s)",
		e.Policy, e.Workload, PlacementBinpack, PlacementSpread)
}

// Is matches the ErrRejected umbrella.
func (e *PlacementPolicyError) Is(target error) bool { return target == ErrRejected }

// InvalidDemandError reports a deploy whose WorkloadSpec requested a
// negative amount of CPU or memory. A rejection (matches ErrRejected):
// admitted, a negative demand would pass every quota and capacity check
// and credit the node with capacity it does not have.
type InvalidDemandError struct {
	Workload  string
	Requested Resources
}

// Error names the workload and the offending demand.
func (e *InvalidDemandError) Error() string {
	return fmt.Sprintf("orchestrator: workload %s requests negative resources (%dm CPU, %dMB)",
		e.Workload, e.Requested.CPUMilli, e.Requested.MemoryMB)
}

// Is matches the ErrRejected umbrella.
func (e *InvalidDemandError) Is(target error) bool { return target == ErrRejected }

// CheckDemand rejects a spec whose resource demand is negative (zero is
// legal) with a typed *InvalidDemandError.
func (s WorkloadSpec) CheckDemand() error {
	if s.Resources.CPUMilli < 0 || s.Resources.MemoryMB < 0 {
		return &InvalidDemandError{Workload: s.Name, Requested: s.Resources}
	}
	return nil
}

// DrainError reports a drain aborted because a workload could not be
// live-migrated off the node (typically capacity). The drain's partial
// progress is in the DrainResult returned alongside it; the node's
// schedulable state has been rolled back. Unwrap exposes the scheduling
// failure, so errors.Is(err, ErrNoCapacity) works.
type DrainError struct {
	Node     string
	Workload string
	Err      error
}

// Error names the stuck workload and the cause.
func (e *DrainError) Error() string {
	return fmt.Sprintf("orchestrator: drain %s blocked at %s: %v", e.Node, e.Workload, e.Err)
}

// Unwrap exposes the scheduling failure.
func (e *DrainError) Unwrap() error { return e.Err }

// CancelledError reports a deployment aborted by its context: cancelled
// explicitly or past its deadline. Stage names where in the pipeline the
// abort landed (scanning | admission | placing | drain). Unwrap
// exposes the context error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both work.
type CancelledError struct {
	Workload string
	Stage    string
	Err      error
}

// Error names the stage and the context cause.
func (e *CancelledError) Error() string {
	var b strings.Builder
	b.WriteString(ErrCancelled.Error())
	if e.Stage != "" {
		b.WriteString(" during ")
		b.WriteString(e.Stage)
	}
	if e.Err != nil {
		b.WriteString(": ")
		b.WriteString(e.Err.Error())
	}
	return b.String()
}

// Unwrap exposes the context error (context.Canceled or
// context.DeadlineExceeded).
func (e *CancelledError) Unwrap() error { return e.Err }

// Is matches the ErrCancelled sentinel. Cancellation is not a rejection:
// ErrRejected does not match.
func (e *CancelledError) Is(target error) bool { return target == ErrCancelled }
