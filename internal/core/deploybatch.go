package core

// Batch admission: a tenant CI pipeline (or the orchestration center
// rolling a fleet update) submits many workloads at once. Since API v2
// the batch is a thin fan-out over DeployAsync futures: every spec gets
// its own pipeline goroutine immediately, so spec i can be placing while
// spec j is still scanning — admission pipelines instead of barriering
// on a fixed worker pool. Each spec still runs the full Deploy pipeline
// independently — RBAC, verified pull, the scanner chain, quota
// reservation, scheduling — so one rejection never blocks its siblings,
// and every deployment's lifecycle streams on the deploy.lifecycle
// topic.

import (
	"context"
	"runtime"

	"genio/internal/orchestrator"
)

// DeployBatch admits every spec through the full deployment pipeline —
// the context-free compatibility wrapper over DeployBatchContext.
func (p *Platform) DeployBatch(subject string, specs []orchestrator.WorkloadSpec) ([]*orchestrator.Workload, []error) {
	return p.DeployBatchContext(context.Background(), subject, specs)
}

// batchInFlight bounds how many of a batch's futures run at once:
// enough headroom over GOMAXPROCS that admission keeps pipelining
// (scans of one spec overlap placement of another), without launching
// an unbounded goroutine herd for huge batches.
func batchInFlight() int {
	return 4 * runtime.GOMAXPROCS(0)
}

// DeployBatchContext admits every spec concurrently via DeployAsync and
// waits for all futures. Results are positional: workloads[i] and
// errs[i] report spec[i]; exactly one of the pair is non-nil. In-flight
// futures are bounded (a few multiples of GOMAXPROCS): slots free in
// completion order, so a slow early spec never stalls the rest of the
// batch behind it. Cancelling ctx aborts every in-flight deployment in
// the batch (each reports a *orchestrator.CancelledError);
// already-placed specs stay placed.
func (p *Platform) DeployBatchContext(ctx context.Context, subject string, specs []orchestrator.WorkloadSpec) ([]*orchestrator.Workload, []error) {
	workloads := make([]*orchestrator.Workload, len(specs))
	errs := make([]error, len(specs))
	futures := make([]*Deployment, len(specs))
	sem := make(chan struct{}, batchInFlight())
	for i, spec := range specs {
		sem <- struct{}{}
		d, err := p.DeployAsync(ctx, subject, spec)
		if err != nil {
			<-sem
			errs[i] = err
			continue
		}
		go func() { <-d.Done(); <-sem }()
		futures[i] = d
	}
	for i, d := range futures {
		if d != nil {
			workloads[i], errs[i] = d.Result()
		}
	}
	return workloads, errs
}
