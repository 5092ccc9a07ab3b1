package federation

import (
	"errors"
	"fmt"

	"genio/internal/orchestrator"
)

// Sentinels for errors.Is classification, mirroring the orchestrator
// taxonomy: every typed federation error also matches
// orchestrator.ErrRejected, so existing "was this deploy rejected?"
// call sites classify federated rejections without new plumbing.
var (
	// ErrRegionPinned marks deployments refused because they would
	// violate a tenant's data-residency pin.
	ErrRegionPinned = errors.New("federation: region pinned")
	// ErrClusterNotFound marks operations addressing an unknown cluster.
	ErrClusterNotFound = errors.New("federation: cluster not found")
)

// RegionPinnedError reports a deployment that asked for a region the
// tenant's residency pin forbids. The pin is a hard constraint: the
// federation never places (even transiently) a pinned tenant's workload
// outside its region, so the request is refused rather than rerouted.
type RegionPinnedError struct {
	Workload  string
	Tenant    string
	Region    string // the tenant's pinned region
	Requested string // the region the deploy asked for
}

// Error describes the residency conflict.
func (e *RegionPinnedError) Error() string {
	return fmt.Sprintf("workload %s: tenant %s is pinned to region %q, deploy requested %q",
		e.Workload, e.Tenant, e.Region, e.Requested)
}

// Is matches the region-pin sentinel and the rejection umbrella.
func (e *RegionPinnedError) Is(target error) bool {
	return target == ErrRegionPinned || target == orchestrator.ErrRejected
}

// FederationCapacityError reports a deployment no eligible cluster
// could take: every cluster the region filter admitted was tried (the
// load bound defers a cluster, never excuses it) and each rejected the
// deploy for capacity or detached mid-walk. Err holds the last capacity
// error (nil when no cluster was eligible, or all of them detached).
type FederationCapacityError struct {
	Workload string
	Tenant   string
	Region   string // "" = no region constraint
	Clusters int    // eligible clusters walked
	Err      error
}

// Error describes the exhausted walk.
func (e *FederationCapacityError) Error() string {
	region := e.Region
	if region == "" {
		region = "any"
	}
	if e.Err != nil {
		return fmt.Sprintf("workload %s: no capacity across %d cluster(s) in region %s: %v",
			e.Workload, e.Clusters, region, e.Err)
	}
	return fmt.Sprintf("workload %s: no eligible cluster in region %s", e.Workload, region)
}

// Unwrap exposes the last per-cluster capacity error.
func (e *FederationCapacityError) Unwrap() error { return e.Err }

// Is matches the capacity sentinel and the rejection umbrella.
func (e *FederationCapacityError) Is(target error) bool {
	return target == orchestrator.ErrNoCapacity || target == orchestrator.ErrRejected
}

// ClusterNotFoundError reports an operation addressing a cluster the
// federation does not hold.
type ClusterNotFoundError struct {
	Cluster string
}

// Error names the missing cluster.
func (e *ClusterNotFoundError) Error() string {
	return fmt.Sprintf("federation: unknown cluster %s", e.Cluster)
}

// Is matches the cluster sentinel and the orchestrator's not-found
// sentinel, so callers probing errors.Is(err, orchestrator.ErrNotFound)
// treat unknown clusters like unknown nodes.
func (e *ClusterNotFoundError) Is(target error) bool {
	return target == ErrClusterNotFound || target == orchestrator.ErrNotFound
}

// DuplicateClusterError reports an AddCluster under a name the
// federation already holds.
type DuplicateClusterError struct {
	Cluster string
}

// Error names the conflict.
func (e *DuplicateClusterError) Error() string {
	return fmt.Sprintf("federation: cluster %s already exists", e.Cluster)
}

// Is matches the orchestrator's duplicate-name sentinel.
func (e *DuplicateClusterError) Is(target error) bool {
	return target == orchestrator.ErrDuplicateName
}
