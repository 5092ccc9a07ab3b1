package sim

// Wire injectors: the same deployment traffic as the in-process
// injectors, but driven through the networked control plane — the
// world's authenticated HTTP client against the loopback-hosted
// genio/api/server that Engine.Run wires up for Scenario.Wire runs.
// Every outcome crosses encode→HTTP→decode, so the campaign proves the
// wire neither perturbs admission verdicts nor unbalances the
// lifecycle/event ledgers the invariants audit.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"genio/api"
	"genio/internal/core"
	"genio/internal/orchestrator"
)

// wireSpec converts a library spec to its wire form.
func wireSpec(spec orchestrator.WorkloadSpec) api.WorkloadSpec {
	return api.FromWorkloadSpec(spec)
}

// WireDeploy submits one workload synchronously over HTTP and records
// its (decoded) verdict for the determinism invariant — the wire
// round-trip must classify exactly like the in-process path.
func WireDeploy(tenant, ref string, iso orchestrator.IsolationMode, res orchestrator.Resources) Step {
	return Step{Name: "wire-deploy", Run: func(w *World) Outcome {
		return wireDeployOne(w, orchestrator.WorkloadSpec{
			Name: w.NextWorkloadName(), Tenant: tenant, ImageRef: ref,
			Isolation: iso, Resources: res,
		})
	}}
}

func wireDeployOne(w *World, spec orchestrator.WorkloadSpec) Outcome {
	if w.wire == nil {
		return Outcome{Status: "error", Detail: "wire step in a non-wire scenario"}
	}
	w.policies[spec.Name] = spec.PlacementPolicy
	_, err := w.wire.Deploy(context.Background(), wireSpec(spec))
	status := w.observeDeploy(spec, err)
	if err != nil {
		return Outcome{Status: status, Detail: fmt.Sprintf("%s (%s): %v", spec.Name, spec.ImageRef, err)}
	}
	return Outcome{Status: status, Detail: fmt.Sprintf("%s (%s) placed", spec.Name, spec.ImageRef)}
}

// WireDeployFlood fires n synchronous wire deployments drawn randomly
// from refs — the admission-flood shape, over HTTP.
func WireDeployFlood(n int, tenant string, res orchestrator.Resources, refs ...string) Step {
	return Step{Name: "wire-deploy-flood", Run: func(w *World) Outcome {
		counts := map[string]int{}
		for i := 0; i < n; i++ {
			out := wireDeployOne(w, orchestrator.WorkloadSpec{
				Name: w.NextWorkloadName(), Tenant: tenant,
				ImageRef:  refs[w.Rand.Intn(len(refs))],
				Isolation: orchestrator.IsolationSoft, Resources: res,
			})
			counts[out.Status]++
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		detail := fmt.Sprintf("%d wire deploys:", n)
		for _, k := range keys {
			detail += fmt.Sprintf(" %s=%d", k, counts[k])
		}
		return okf("%s", detail)
	}}
}

// WireCancelStorm is the cancel-storm shape over HTTP: n asynchronous
// deployments via POST /v2/deployments/async, with a seeded subset
// cancelled through DELETE while the sim-cancel-gate holds them
// mid-scan. The cancelled-never-placed and lifecycle-ledger invariants
// audit the aftermath exactly as they do for in-process futures.
func WireCancelStorm(n int, tenant string, res orchestrator.Resources, refs ...string) Step {
	if len(refs) == 0 {
		refs = []string{CleanImageRef}
	}
	return Step{Name: "wire-cancel-storm", Run: func(w *World) Outcome {
		if w.wire == nil {
			return Outcome{Status: "error", Detail: "wire step in a non-wire scenario"}
		}
		counts := map[string]int{}
		cancelledNow := 0
		for i := 0; i < n; i++ {
			spec := orchestrator.WorkloadSpec{
				Name: w.NextWorkloadName(), Tenant: tenant,
				ImageRef:  refs[w.Rand.Intn(len(refs))],
				Isolation: orchestrator.IsolationSoft, Resources: res,
			}
			// The coin flips before the deploy so the schedule replays.
			doCancel := w.Rand.Intn(2) == 0
			var status string
			if doCancel {
				status = w.wireCancelOne(spec)
				cancelledNow++
			} else {
				status = w.wireAsyncOne(spec)
			}
			counts[status]++
			w.Clock.Advance(5)
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		detail := fmt.Sprintf("%d wire async deploys (%d cancel attempts):", n, cancelledNow)
		for _, k := range keys {
			detail += fmt.Sprintf(" %s=%d", k, counts[k])
		}
		return okf("%s", detail)
	}}
}

// wireCancelOne runs one armed deployment over the wire: submit async,
// poll until the gate holds it in scanning (or it turns terminal
// first), cancel via the wire, and await the terminal typed error.
func (w *World) wireCancelOne(spec orchestrator.WorkloadSpec) string {
	w.markCancelTarget(spec.Name)
	defer w.clearCancelTarget(spec.Name)
	d, err := w.wire.DeployAsync(context.Background(), wireSpec(spec))
	if err != nil {
		return "error"
	}
	// The gate pins the future in scanning until its context dies, so
	// this poll terminates: either we observe scanning (and the cancel
	// below deterministically lands mid-scan) or the future was refused
	// before the gate (terminal already).
	for {
		st, err := d.Status(context.Background())
		if err != nil {
			return "error"
		}
		if st.State == string(core.StateScanning) || core.DeployState(st.State).Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.Cancel(context.Background()); err != nil {
		return "error"
	}
	_, derr := d.Await(context.Background())
	return w.observeAsync(spec, derr)
}

// wireAsyncOne runs one un-armed deployment over the wire to its
// natural terminal state.
func (w *World) wireAsyncOne(spec orchestrator.WorkloadSpec) string {
	d, err := w.wire.DeployAsync(context.Background(), wireSpec(spec))
	if err != nil {
		return "error"
	}
	_, derr := d.Await(context.Background())
	return w.observeAsync(spec, derr)
}

// WireLedgerProbe reads the event ledger through GET /v2/ledger and
// reports the deploy.lifecycle publish count — deterministic because the
// spine never drops, so it joins the replay contract and pins down that
// wire-driven deployments fed the spine exactly like local ones.
func WireLedgerProbe() Step {
	return Step{Name: "wire-ledger-probe", Run: func(w *World) Outcome {
		if w.wire == nil {
			return Outcome{Status: "error", Detail: "wire step in a non-wire scenario"}
		}
		w.Platform.Flush()
		ledger, err := w.wire.Ledger(context.Background())
		if err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("ledger: %v", err)}
		}
		lifecycle := ledger["deploy.lifecycle"]
		if lifecycle.Published == 0 {
			return Outcome{Status: "error", Detail: "no deploy.lifecycle events crossed the spine"}
		}
		return okf("deploy.lifecycle published=%d dropped=%d", lifecycle.Published, lifecycle.Dropped)
	}}
}

// WireDeployBatch draws n specs from refs and ships them as ONE signed
// POST /v2/deploy/batch request — the amortized storm shape. Results
// decode positionally, so each element feeds the verdict-determinism
// and lifecycle bookkeeping exactly like a single wire deploy; one
// rejected element must never perturb its batch siblings.
func WireDeployBatch(n int, tenant string, res orchestrator.Resources, refs ...string) Step {
	if len(refs) == 0 {
		refs = []string{CleanImageRef}
	}
	return Step{Name: "wire-deploy-batch", Run: func(w *World) Outcome {
		if w.wire == nil {
			return Outcome{Status: "error", Detail: "wire step in a non-wire scenario"}
		}
		specs := make([]orchestrator.WorkloadSpec, n)
		wireSpecs := make([]api.WorkloadSpec, n)
		for i := range specs {
			specs[i] = orchestrator.WorkloadSpec{
				Name: w.NextWorkloadName(), Tenant: tenant,
				ImageRef:  refs[w.Rand.Intn(len(refs))],
				Isolation: orchestrator.IsolationSoft, Resources: res,
			}
			w.policies[specs[i].Name] = specs[i].PlacementPolicy
			wireSpecs[i] = wireSpec(specs[i])
		}
		results, err := w.wire.DeployBatch(context.Background(), wireSpecs)
		if err != nil {
			return Outcome{Status: "error", Detail: fmt.Sprintf("batch transport: %v", err)}
		}
		if len(results) != n {
			return Outcome{Status: "error", Detail: fmt.Sprintf("batch returned %d results for %d specs", len(results), n)}
		}
		counts := map[string]int{}
		for i, r := range results {
			status := w.observeDeploy(specs[i], r.Err)
			counts[status]++
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		detail := fmt.Sprintf("%d wire deploys in one batch:", n)
		for _, k := range keys {
			detail += fmt.Sprintf(" %s=%d", k, counts[k])
		}
		return okf("%s", detail)
	}}
}
