package core

// Event-spine wiring: the platform owns one events.Spine carrying every
// telemetry stream — incidents, falco alerts, control-plane audit
// records, metrics — and the incident log the public API exposes is a
// materialised view over the spine's incident topic. The spine's
// Flush/Close lifecycle gives the log its drain semantics (Flush is
// read-your-writes, every Close blocks until drained), and external
// consumers (SIEM exporters, dashboards, simulators) get the same
// subscription surface the platform itself uses.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"genio/internal/events"
	"genio/internal/orchestrator"
)

// incidentView materialises TopicIncident into the ordered, counted log
// behind Incidents() and IncidentCounts(). It is a regular spine
// subscriber; Flush before read gives the same visibility contract the
// old bus had. Appends arrive from the spine's delivery goroutine (and,
// after Close, synchronously from late recorders), so state sits behind
// a lock.
type incidentView struct {
	// seq hands out Incident.Seq numbers at record time. Padded onto its
	// own cache line: every producer bumps it, the spine drainer takes
	// mu — sharing a line would serialize the two hot sides.
	seq atomic.Uint64
	_   [56]byte

	mu        sync.RWMutex
	incidents []Incident
	counts    map[string]int
	// sorted tracks whether incidents is currently in Seq order, so
	// repeated reads of a quiet log skip re-sorting.
	sorted bool
}

func newIncidentView() *incidentView {
	return &incidentView{counts: make(map[string]int)}
}

// batch is the view's spine subscription handler. Concurrent recorders
// can enqueue out of Seq order, so arrival order is not record order;
// snapshot restores it from Seq.
func (v *incidentView) batch(evs []events.Event) {
	v.mu.Lock()
	for _, e := range evs {
		if inc, ok := e.Payload.(Incident); ok {
			v.incidents = append(v.incidents, inc)
			v.counts[inc.Source]++
		}
	}
	v.sorted = false
	v.mu.Unlock()
}

// append applies one incident synchronously — the post-Close path, so
// late incidents are never lost.
func (v *incidentView) append(i Incident) {
	v.mu.Lock()
	v.incidents = append(v.incidents, i)
	v.counts[i.Source]++
	v.sorted = false
	v.mu.Unlock()
}

// snapshot returns the log in record (Seq) order.
func (v *incidentView) snapshot() []Incident {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.sorted {
		sort.Slice(v.incidents, func(a, b int) bool {
			return v.incidents[a].Seq < v.incidents[b].Seq
		})
		v.sorted = true
	}
	out := make([]Incident, len(v.incidents))
	copy(out, v.incidents)
	return out
}

func (v *incidentView) countsBySource() map[string]int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int, len(v.counts))
	for k, c := range v.counts {
		out[k] = c
	}
	return out
}

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

// publishWarmEvent mirrors one warm-slot lifecycle transition onto the
// spine: a slot.<kind> metric for every transition, plus an audit
// record for the state-changing ones (hits, evictions, flushes — a miss
// changes nothing and stays metric-only). Installed as the cluster's
// warm event sink; invoked outside cluster locks.
func (p *Platform) publishWarmEvent(ev orchestrator.WarmEvent) {
	label := ev.Node
	if label == "" {
		label = ev.Tenant
	}
	p.publishMetric("slot."+ev.Kind, float64(ev.Count), label)
	if ev.Kind != orchestrator.WarmMiss {
		p.publishAudit(orchestrator.WarmAudit(ev))
	}
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
