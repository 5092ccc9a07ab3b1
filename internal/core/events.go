package core

// Event-spine wiring: the platform owns one events.Spine carrying every
// telemetry stream — incidents, falco alerts, deploy lifecycle,
// control-plane audit records, metrics — and each stream reaches its
// observers only through it. The incident log the public API exposes is
// platform state, not a spine view: recordIncident appends to it before
// publishing, so reads never wait on a subscriber. The spine's
// Flush/Close lifecycle gives subscribers their drain semantics (Flush
// is read-your-writes, every Close blocks until drained), and external
// consumers (SIEM exporters, dashboards, simulators) get the same
// subscription surface the platform itself uses.

import (
	"context"
	"fmt"

	"genio/internal/events"
	"genio/internal/orchestrator"
)

// incidentKey labels incidents by workload when one is named, falling
// back to the source stream for unattributed incidents (boot, pon).
func incidentKey(i Incident) string {
	if i.Workload != "" {
		return i.Workload
	}
	return i.Source
}

// Subscribe registers a handler on the platform's event spine for the
// given topics (nil = every topic). Handlers run on the spine's delivery
// goroutine — see events.BatchHandler for the contract. Returns
// events.ErrClosed after Close.
func (p *Platform) Subscribe(name string, topics []events.Topic, h events.BatchHandler) (*events.Subscription, error) {
	return p.spine.Subscribe(name, topics, h)
}

// Metrics snapshots the spine's per-topic accounting: published,
// delivered, and the always-zero dropped counts.
func (p *Platform) Metrics() events.Stats {
	return p.spine.Stats()
}

// PublishEvent publishes onto the platform spine, stamping AtMs from the
// platform clock when unset. External detectors and exporters integrate
// here; the platform's own pipeline publishes through the same path.
// Returns events.ErrClosed after Close.
//
// Incident-topic events are routed through the incident log's record
// path so they join the Seq order, count in Incidents(), and are never
// lost (even after Close) — exactly like RecordIncident. Their payload
// must therefore be a core.Incident.
func (p *Platform) PublishEvent(e events.Event) error {
	return p.PublishEventContext(context.Background(), e)
}

// PublishEventContext is PublishEvent with bounded waiting: a full spine
// queue stalls the publisher, and a done ctx abandons the wait with the
// context error instead (the event is not published). Incident-topic
// events keep the never-lost record path and ignore ctx once accepted.
func (p *Platform) PublishEventContext(ctx context.Context, e events.Event) error {
	if e.Topic == events.TopicIncident {
		inc, ok := e.Payload.(Incident)
		if !ok {
			return fmt.Errorf("core: incident topic requires an Incident payload, got %T", e.Payload)
		}
		if inc.AtMs == 0 {
			inc.AtMs = e.AtMs
		}
		p.recordIncident(inc)
		return nil
	}
	if p.now != nil && e.AtMs == 0 {
		e.AtMs = p.now()
	}
	return p.spine.PublishContext(ctx, e)
}

// publishMetric emits one metric event; drops silently after Close
// (metrics are advisory, unlike incidents).
func (p *Platform) publishMetric(name string, value float64, label string) {
	var atMs int64
	if p.now != nil {
		atMs = p.now()
	}
	_ = p.spine.Publish(events.Event{
		Topic: events.TopicMetric, Key: label, AtMs: atMs,
		Payload: events.Metric{Name: name, Value: value, Label: label},
	})
}

// publishAudit forwards one control-plane audit record onto the spine;
// installed as the cluster's audit sink. Audit events after Close are
// dropped (the control-plane decision itself is already reflected in
// cluster state).
func (p *Platform) publishAudit(a orchestrator.AuditEvent) {
	if p.now != nil && a.AtMs == 0 {
		a.AtMs = p.now()
	}
	key := a.Tenant
	if key == "" {
		key = a.Node
	}
	_ = p.spine.Publish(events.Event{
		Topic: events.TopicAudit, Key: key, AtMs: a.AtMs, Payload: a,
	})
}
