package core

// Batch admission: a tenant CI pipeline (or the orchestration center
// rolling a fleet update) submits many workloads at once. The batch is
// a worker loop, not a fan-out: min(GOMAXPROCS, len(specs)) workers —
// the caller's goroutine is one of them — claim the next spec index
// from an atomic counter and drive the same Deployment.run pipeline
// DeployAsync uses, inline. Each spec still runs the full Deploy
// pipeline independently — RBAC, verified pull, the scanner chain,
// quota reservation, scheduling — so one rejection never blocks its
// siblings, and every deployment's lifecycle streams on the
// deploy.lifecycle topic exactly as a future's does.
//
// The goroutine-per-spec future fan-out this replaces was hand-off
// bound: a fresh stack and two parkings per spec cost ~10 % of the
// daemon's bulk-phase CPU samples and bought nothing (ROADMAP 2a).
// Workers rather than a plain loop because parallelism pays where a
// spec carries real CPU: at 2 vCPUs one worker measured 12 % above two
// on hot_sync_bulk_recover but 7 % below on fleet_ops and
// sync_cold_scan (deploys_per_s medians, ISSUE 21).

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"genio/internal/orchestrator"
)

// DeployBatchContext admits every spec and returns when all are
// terminal. Results are positional: workloads[i] and errs[i] report
// spec[i]; exactly one of the pair is non-nil. At most GOMAXPROCS
// pipelines are in flight — one per worker, each between its pending
// and its terminal lifecycle event — and workers claim specs in index
// order as they free up, so a slow early spec never stalls the rest of
// the batch behind it. No goroutine outlives the call. Cancelling ctx
// aborts the in-flight deployments and every spec not yet started (each
// reports a *orchestrator.CancelledError); already-placed specs stay
// placed. On a closed platform every element is a *ClosedError and no
// lifecycle event is published.
func (p *Platform) DeployBatchContext(ctx context.Context, subject string, specs []orchestrator.WorkloadSpec) ([]*orchestrator.Workload, []error) {
	workloads := make([]*orchestrator.Workload, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(specs) {
				return
			}
			d, dctx, err := p.newDeployment(ctx, specs[i], nil)
			if err != nil {
				errs[i] = err
				continue
			}
			d.run(dctx, subject)
			workloads[i], errs[i] = d.w, d.err
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(specs)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return workloads, errs
}
