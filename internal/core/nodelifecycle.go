package core

// Node lifecycle on the platform surface: cordon/uncordon/drain wrap
// the cluster verbs and put drain progress on the event spine — every
// DrainEvent publishes on the node.drain topic (keyed by node, so
// per-drain order is preserved) and the drain outcome lands on the
// metric topic, giving dashboards and the simulator the same view the
// caller gets synchronously.

import (
	"context"

	"genio/internal/events"
	"genio/internal/orchestrator"
)

// clusterOf resolves the cluster that schedules the named node: the
// first member holding it, else the default cluster, whose verbs then
// answer with the usual typed NodeNotFoundError.
func (p *Platform) clusterOf(node string) *orchestrator.Cluster {
	for _, c := range p.allClusters() {
		if c.HasNode(node) {
			return c
		}
	}
	return p.Cluster
}

// Cordon marks an edge node unschedulable: running workloads stay, new
// placements skip it. Idempotent.
func (p *Platform) Cordon(name string) error {
	if p.closed.Load() {
		return &ClosedError{Op: "cordon"}
	}
	return p.clusterOf(name).Cordon(name)
}

// Uncordon returns an edge node to the schedulable pool. Idempotent.
func (p *Platform) Uncordon(name string) error {
	if p.closed.Load() {
		return &ClosedError{Op: "uncordon"}
	}
	return p.clusterOf(name).Uncordon(name)
}

// Drain cordons the node and live-migrates its workloads onto the rest
// of the fleet through the scheduler (see orchestrator.Cluster.Drain
// for the full contract: cancellation stops at the next migration
// boundary and rolls the cordon back; completed migrations stay). Every
// step is published on the spine's node.drain topic; the outcome counts
// on node.drained / node.drain.stopped metrics.
func (p *Platform) Drain(ctx context.Context, name string) (*orchestrator.DrainResult, error) {
	return p.DrainObserved(ctx, name, nil)
}

// DrainObserved is Drain with a caller-supplied progress observer,
// invoked on the draining goroutine after each event publishes on the
// spine — so callers needing synchronous progress (CLIs, simulators
// pacing a virtual clock) do not have to bypass the platform surface
// and lose the node.drain telemetry.
func (p *Platform) DrainObserved(ctx context.Context, name string, observe func(orchestrator.DrainEvent)) (*orchestrator.DrainResult, error) {
	if p.closed.Load() {
		return nil, &ClosedError{Op: "drain"}
	}
	res, err := p.clusterOf(name).DrainObserved(ctx, name, func(ev orchestrator.DrainEvent) {
		if p.now != nil && ev.AtMs == 0 {
			ev.AtMs = p.now()
		}
		_ = p.spine.Publish(events.Event{
			Topic: events.TopicNodeDrain, Key: ev.Node, AtMs: ev.AtMs, Payload: ev,
		})
		if observe != nil {
			observe(ev)
		}
	})
	if res != nil {
		if err == nil {
			p.publishMetric("node.drained", float64(len(res.Migrated)), name)
		} else {
			p.publishMetric("node.drain.stopped", float64(len(res.Remaining)), name)
		}
	}
	return res, err
}

// FailNode removes an edge node and reschedules its workloads through
// the scheduler (orchestrator.Cluster.FailNode), then deregisters the
// node's infrastructure from the platform. The failure outcome lands on
// the metric topic (node.failed, value = rescheduled count) so the
// spine sees node loss the same way it sees drains.
func (p *Platform) FailNode(name string) (*orchestrator.FailoverResult, error) {
	if p.closed.Load() {
		return nil, &ClosedError{Op: "fail-node"}
	}
	res, err := p.clusterOf(name).FailNode(name)
	if err != nil {
		return nil, err
	}
	p.nodeMu.Lock()
	delete(p.nodes, name)
	p.nodeMu.Unlock()
	p.publishMetric("node.failed", float64(len(res.Rescheduled)), name)
	return res, nil
}
