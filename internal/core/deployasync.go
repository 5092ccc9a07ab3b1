package core

// Asynchronous deploy futures (control-plane API v2): DeployAsync returns
// a *Deployment handle immediately and runs the admission pipeline on its
// own goroutine, so callers pipeline deployments instead of barriering on
// each one. Every state transition of the future —
//
//	pending -> scanning -> placing -> running
//	                    \-> rejected
//	                    \-> cancelled
//
// is published on the spine's deploy.lifecycle topic (keyed by workload,
// so per-deployment order is preserved) and mirrored to the optional
// WithOnTransition callback. Transitions only move forward along that
// graph, so exactly one terminal event is ever emitted per deployment,
// whatever the interleaving of Cancel, deadline expiry, and pipeline
// completion, and a federated deploy that overflows to a second member
// (re-running its scanning and placing stages there) still publishes
// each state once. Synchronous deploys (DeployContext) publish no
// lifecycle at all.
//
// Watch is the streaming consumer of the same topic: a selector-filtered
// channel of lifecycle events, closed when the caller's context ends or
// the platform closes.

import (
	"context"
	"errors"
	"sync"

	"genio/internal/events"
	"genio/internal/orchestrator"
)

// DeployState is one state of the asynchronous deployment lifecycle.
type DeployState string

// Lifecycle states. Pending, scanning, and placing are transient;
// running, rejected, and cancelled are terminal.
const (
	// StatePending: the future exists, the pipeline has not started.
	StatePending DeployState = "pending"
	// StateScanning: image pull and the admission chain are running.
	StateScanning DeployState = "scanning"
	// StatePlacing: admission passed; reservation and scheduling run.
	StatePlacing DeployState = "placing"
	// StateRunning: the workload is placed (terminal success).
	StateRunning DeployState = "running"
	// StateRejected: the control plane refused the deployment (terminal;
	// Result returns the typed rejection).
	StateRejected DeployState = "rejected"
	// StateCancelled: the deployment's context was cancelled or expired
	// before placement (terminal; Result returns a *CancelledError).
	StateCancelled DeployState = "cancelled"
)

// Terminal reports whether the state ends the lifecycle.
func (s DeployState) Terminal() bool {
	return s == StateRunning || s == StateRejected || s == StateCancelled
}

// rank is the state's position in the lifecycle; every terminal state
// shares the last one.
func (s DeployState) rank() int {
	switch s {
	case StatePending:
		return 0
	case StateScanning:
		return 1
	case StatePlacing:
		return 2
	default:
		return 3
	}
}

// LifecycleEvent is the payload of deploy.lifecycle spine events: one
// state transition of one asynchronous deployment.
type LifecycleEvent struct {
	Workload string      `json:"workload"`
	Tenant   string      `json:"tenant,omitempty"`
	From     DeployState `json:"from,omitempty"`
	State    DeployState `json:"state"`
	// Node is set on the running transition: where the workload landed.
	Node string `json:"node,omitempty"`
	// Detail carries the rejection or cancellation error on terminal
	// failures.
	Detail string `json:"detail,omitempty"`
	// AtMs is the platform-clock time (zero without a clock).
	AtMs int64 `json:"atMs,omitempty"`
}

// DeployOption configures one DeployAsync call.
type DeployOption func(*deployOptions)

type deployOptions struct {
	onTransition func(LifecycleEvent)
}

// WithOnTransition registers a callback invoked synchronously on the
// deployment's own goroutine for every lifecycle transition (after the
// event is published on the spine). The callback must be fast, must not
// call back into Flush/Close, and must not wait on the deployment's own
// Done/Result: the terminal transition's callback runs before Done
// closes (Done is documented to close after the terminal event has been
// published), so blocking on either from the callback deadlocks the
// deployment permanently.
func WithOnTransition(fn func(LifecycleEvent)) DeployOption {
	return func(o *deployOptions) { o.onTransition = fn }
}

// Deployment is an asynchronous deployment future returned by
// DeployAsync. Safe for concurrent use.
type Deployment struct {
	p      *Platform
	spec   orchestrator.WorkloadSpec
	cancel context.CancelFunc
	done   chan struct{}

	onTransition func(LifecycleEvent)

	mu    sync.Mutex
	state DeployState

	// w and err are written exactly once, before done closes; Done/Result
	// observers synchronize through the channel close.
	w   *orchestrator.Workload
	err error
}

// Spec returns the deployment's requested spec.
func (d *Deployment) Spec() orchestrator.WorkloadSpec { return d.spec }

// State returns the current lifecycle state.
func (d *Deployment) State() DeployState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Done returns a channel closed when the deployment reaches a terminal
// state (after its terminal lifecycle event has been published).
func (d *Deployment) Done() <-chan struct{} { return d.done }

// Result blocks until the deployment is terminal and returns its
// outcome: the placed workload, or the typed rejection/cancellation
// error. Exactly one of the pair is non-nil.
func (d *Deployment) Result() (*orchestrator.Workload, error) {
	<-d.done
	return d.w, d.err
}

// Cancel aborts the deployment: the pipeline stops at its next
// cancellation point (scanners poll between files), the workload is
// never placed, and Result reports a *orchestrator.CancelledError.
// Cancelling a terminal deployment is a no-op; Cancel never blocks.
func (d *Deployment) Cancel() { d.cancel() }

// DeployAsync starts a deployment and returns its future. The pipeline —
// RBAC, verified pull, admission chain, reservation, scheduling — runs
// on its own goroutine under a context derived from ctx: cancelling ctx
// (or Deployment.Cancel, or a deadline) aborts it between stages and
// inside scans without placing the workload.
// The only synchronous failure is a closed platform (*ClosedError).
func (p *Platform) DeployAsync(ctx context.Context, subject string, spec orchestrator.WorkloadSpec, opts ...DeployOption) (*Deployment, error) {
	var o deployOptions
	for _, opt := range opts {
		opt(&o)
	}
	d, dctx, err := p.newDeployment(ctx, spec, o.onTransition)
	if err != nil {
		return nil, err
	}
	go d.run(dctx, subject)
	return d, nil
}

// newDeployment is the one constructor behind DeployAsync and the batch
// worker loop: a pending future plus the per-deployment context its
// pipeline runs under (released by run). A closed platform is the only
// failure.
func (p *Platform) newDeployment(ctx context.Context, spec orchestrator.WorkloadSpec, onTransition func(LifecycleEvent)) (*Deployment, context.Context, error) {
	if p.closed.Load() {
		return nil, nil, &ClosedError{Op: "deploy"}
	}
	dctx, cancel := context.WithCancel(ctx)
	return &Deployment{
		p: p, spec: spec, cancel: cancel,
		done: make(chan struct{}), state: StatePending,
		onTransition: onTransition,
	}, dctx, nil
}

// run drives the pipeline to a terminal state. Every lifecycle event —
// pending included — is emitted on this goroutine, which is what makes
// the exactly-one-terminal-event guarantee cheap, keeps the callback
// contract (one goroutine, every transition), and means DeployAsync
// itself never blocks on spine backpressure. Pending is the first emit,
// so per-deployment order on the lifecycle topic always starts there.
func (d *Deployment) run(ctx context.Context, subject string) {
	defer d.cancel() // release the derived context whatever the outcome
	d.emit(LifecycleEvent{Workload: d.spec.Name, Tenant: d.spec.Tenant, State: StatePending})
	// w is the commit-time copy, so reading its node cannot race a
	// failover rewriting the live cluster record.
	w, err := d.p.deployObserved(ctx, subject, d.spec, func(stage orchestrator.DeployStage) {
		switch stage {
		case orchestrator.StageScanning:
			d.transition(StateScanning, "", "")
		case orchestrator.StagePlacing:
			d.transition(StatePlacing, "", "")
		}
	})
	d.w, d.err = w, err
	switch {
	case err == nil:
		d.transition(StateRunning, w.Node, "")
	case errors.Is(err, orchestrator.ErrCancelled):
		d.transition(StateCancelled, "", err.Error())
	default:
		d.transition(StateRejected, "", err.Error())
	}
	close(d.done)
}

// transition advances the lifecycle and emits the event. A transition
// that does not move forward is dropped: nothing leaves a terminal state
// (the exactly-one-terminal-event guarantee), and a stage re-entered on
// a second federation member is not published twice.
func (d *Deployment) transition(to DeployState, node, detail string) {
	d.mu.Lock()
	if to.rank() <= d.state.rank() {
		d.mu.Unlock()
		return
	}
	from := d.state
	d.state = to
	d.mu.Unlock()
	d.emit(LifecycleEvent{
		Workload: d.spec.Name, Tenant: d.spec.Tenant,
		From: from, State: to, Node: node, Detail: detail,
	})
}

// emit stamps and publishes one lifecycle event, then mirrors it to the
// per-deployment callback. Lifecycle telemetry is observer-dependent:
// with no deploy.lifecycle subscriber registered, the publish is elided
// entirely so the un-watched deploy hot path pays nothing for the topic
// (a subscriber registered mid-deployment starts seeing events from its
// next transition). Publishing after platform Close degrades to a drop:
// the lifecycle of a closed platform is not observable.
func (d *Deployment) emit(ev LifecycleEvent) {
	if d.p.now != nil && ev.AtMs == 0 {
		ev.AtMs = d.p.now()
	}
	if d.p.spine.HasSubscribers(events.TopicDeployLifecycle) {
		_ = d.p.spine.Publish(events.Event{
			Topic: events.TopicDeployLifecycle, Key: ev.Workload, AtMs: ev.AtMs, Payload: ev,
		})
	}
	if d.onTransition != nil {
		d.onTransition(ev)
	}
}

// WatchSelector filters a lifecycle watch. The zero value matches every
// event.
type WatchSelector struct {
	// Tenant, when non-empty, matches only that tenant's deployments.
	Tenant string
	// Workload, when non-empty, matches only that workload.
	Workload string
	// TerminalOnly drops the transient states (pending, scanning,
	// placing).
	TerminalOnly bool
}

func (s WatchSelector) match(ev LifecycleEvent) bool {
	if s.Tenant != "" && ev.Tenant != s.Tenant {
		return false
	}
	if s.Workload != "" && ev.Workload != s.Workload {
		return false
	}
	if s.TerminalOnly && !ev.State.Terminal() {
		return false
	}
	return true
}

// Watch streams deploy.lifecycle events matching sel, in publish order,
// until ctx ends or the platform closes (Close or Crash), then closes
// the returned channel; events published before the platform closed are
// delivered first. Delivery is decoupled from the spine through an
// unbounded queue, so a slow consumer never stalls the spine's drainer
// (or its publishers); events published while nobody receives are
// retained.
func (p *Platform) Watch(ctx context.Context, sel WatchSelector) (<-chan LifecycleEvent, error) {
	if p.closed.Load() {
		return nil, &ClosedError{Op: "watch"}
	}
	var (
		mu    sync.Mutex
		queue []LifecycleEvent
	)
	notify := make(chan struct{}, 1)
	sub, err := p.spine.Subscribe("deploy-watch", []events.Topic{events.TopicDeployLifecycle},
		func(batch []events.Event) {
			matched := false
			mu.Lock()
			for _, e := range batch {
				if ev, ok := e.Payload.(LifecycleEvent); ok && sel.match(ev) {
					queue = append(queue, ev)
					matched = true
				}
			}
			mu.Unlock()
			if matched {
				select {
				case notify <- struct{}{}:
				default:
				}
			}
		})
	if err != nil {
		if errors.Is(err, events.ErrClosed) {
			return nil, &ClosedError{Op: "watch"}
		}
		return nil, err
	}
	out := make(chan LifecycleEvent)
	go func() {
		defer close(out)
		defer sub.Cancel()
		for {
			// The spine has drained by the time done closes, so the queue
			// then holds every event this watch will ever see.
			closing := false
			select {
			case <-ctx.Done():
				return
			case <-p.done:
				closing = true
			case <-notify:
			}
			mu.Lock()
			batch := queue
			queue = nil
			mu.Unlock()
			for _, ev := range batch {
				select {
				case out <- ev:
				case <-ctx.Done():
					return
				}
			}
			if closing {
				return
			}
		}
	}()
	return out, nil
}
