// Package client is the control-plane client behind genioctl: one
// interface and its one implementation, an HTTP client speaking the
// genio/api wire contract to an api/server — a remote geniod, or one the
// caller hosts on loopback over its own platform (daemon-less genioctl,
// the simulator). Either way a call crosses the same server-side path,
// and errors decode back to the library's typed taxonomy, so
// errors.Is/errors.As-driven output matches what the platform returns.
package client

import (
	"context"

	"genio/api"
)

// Interface is the control-plane surface the CLI (and the simulator's
// wire campaign) programs against.
type Interface interface {
	// Deploy runs one deployment synchronously on ctx: cancelling ctx
	// cancels (and rolls back) the in-flight deployment.
	Deploy(ctx context.Context, spec api.WorkloadSpec) (*api.Workload, error)
	// DeployAsync launches a deployment future and returns a handle to
	// poll, await, or cancel it.
	DeployAsync(ctx context.Context, spec api.WorkloadSpec) (Deployment, error)
	// DeployBatch admits every spec through the full pipeline and waits
	// for all of them. Results are positional (Results[i] answers
	// specs[i]), each carrying either the placed workload or the typed
	// error — one rejection never fails its siblings. The whole batch
	// ships as ONE signed request; the returned error reports
	// transport/auth failure only.
	DeployBatch(ctx context.Context, specs []api.WorkloadSpec) ([]BatchResult, error)
	// Watch streams lifecycle transitions matching the selector until
	// ctx ends, reconnecting dropped streams with backoff and reapplying
	// the same selector.
	Watch(ctx context.Context, sel api.WatchSelector) (<-chan api.LifecycleEvent, error)

	// AddNode provisions an edge node into the named federation cluster
	// ("" = the default cluster — the only valid value outside
	// federation mode).
	AddNode(ctx context.Context, cluster, name string, capacity api.Resources) error
	// Nodes returns the fleet table; a non-nil probe adds the
	// scheduler's binpack/spread scores for that demand. cluster narrows
	// a federated fleet to one member ("" = every member, each row
	// labeled with its cluster; on a plain platform rows are unlabeled).
	Nodes(ctx context.Context, probe *api.Resources, cluster string) ([]api.NodeStatus, error)
	Cordon(ctx context.Context, node string) error
	Uncordon(ctx context.Context, node string) error
	// Drain live-migrates the node's workloads; cancelling ctx stops the
	// drain at the next migration boundary and rolls the cordon back.
	Drain(ctx context.Context, node string) (*api.DrainResult, error)
	// FailNode simulates node loss: remove the node and reschedule.
	FailNode(ctx context.Context, node string) (*api.FailoverResult, error)
	AttachONU(ctx context.Context, node, serial string) error

	Incidents(ctx context.Context) (api.IncidentCounts, error)
	Ledger(ctx context.Context) (api.Ledger, error)

	// Clusters lists the placement domains: federation members, or a
	// synthesized single entry on a plain platform.
	Clusters(ctx context.Context) ([]api.ClusterInfo, error)
	// Evacuate re-places a failed federation member's workloads across
	// the survivors and removes it from the federation.
	Evacuate(ctx context.Context, cluster string) (*api.EvacuationResult, error)

	// Close releases the client (and, for a caller hosting its own
	// server, whatever it brought up with it).
	Close() error
}

// BatchResult is one positional element of a DeployBatch: exactly one
// of Workload (placed) or Err (decoded typed taxonomy error —
// errors.Is/As work) is set.
type BatchResult struct {
	Workload *api.Workload
	Err      error
}

// Deployment is a client-side handle on an asynchronous deployment
// future.
type Deployment interface {
	// ID identifies the deployment on its server ("" until assigned).
	ID() string
	// Status snapshots the deployment's current state.
	Status(ctx context.Context) (api.DeploymentStatus, error)
	// Await blocks until the deployment is terminal (or ctx dies) and
	// returns the placement or the typed terminal error.
	Await(ctx context.Context) (*api.Workload, error)
	// Cancel withdraws the deployment; the platform stops it at the
	// next cancellation point and rolls back anything provisional.
	Cancel(ctx context.Context) error
}
