// Package events is GENIO's unified telemetry backbone: one generic
// pub/sub spine carrying every security-relevant stream the platform
// produces — incidents, falco alerts, control-plane audit records, and
// metrics — instead of one bespoke channel per subsystem.
//
// Events are published onto typed topics into one bounded queue, drained
// by one goroutine that delivers in batches to every matching
// subscriber: delivery is in publish order across all topics and keys,
// and handlers never run concurrently with each other. A full queue
// stalls the producer; nothing is ever lost — the incident-log contract.
// Flush gives read-your-writes across goroutines; Close drains and
// stops the spine, blocking all callers until done.
package events

import "sort"

// Topic names one event stream. The built-in taxonomy below covers the
// platform's streams; subsystems may publish additional topics freely —
// a topic exists by being published or subscribed to.
type Topic string

// Built-in topic taxonomy.
const (
	// TopicIncident carries core.Incident payloads: every blocked or
	// detected security-relevant occurrence (admission rejections,
	// sandbox blocks, falco detections, boot/attestation failures, PON
	// activation denials).
	TopicIncident Topic = "incident"
	// TopicFalcoAlert carries falco.Alert payloads: raw runtime
	// detections before they are folded into the incident log.
	TopicFalcoAlert Topic = "falco.alert"
	// TopicAudit carries orchestrator.AuditEvent payloads: control-plane
	// decisions (admission verdicts, placements, failovers, evictions,
	// node membership changes).
	TopicAudit Topic = "audit"
	// TopicMetric carries Metric payloads: counters and gauges emitted
	// by the hot paths (deploy outcomes, runtime event volumes).
	TopicMetric Topic = "metric"
	// TopicDeployLifecycle carries core.LifecycleEvent payloads: the
	// state transitions of asynchronous deployments (pending -> scanning
	// -> placing -> running | rejected | cancelled), keyed by workload and
	// delivered in transition order. Platform.Watch is a filtered
	// consumer of this topic.
	TopicDeployLifecycle Topic = "deploy.lifecycle"
	// TopicNodeDrain carries orchestrator.DrainEvent payloads: the
	// observable steps of a node drain (cordoned -> migrated* ->
	// completed | cancelled | failed), keyed by node and delivered in
	// step order.
	TopicNodeDrain Topic = "node.drain"
)

// BuiltinTopics returns the stock taxonomy, sorted.
func BuiltinTopics() []Topic {
	return []Topic{TopicAudit, TopicDeployLifecycle, TopicFalcoAlert, TopicIncident, TopicMetric, TopicNodeDrain}
}

// Event is one published record.
type Event struct {
	Topic Topic `json:"topic"`
	// Key is the subject label subscribers read — tenant, node, or
	// workload. It does not route: every event shares one ordered queue.
	Key string `json:"key,omitempty"`
	// AtMs is the platform-clock time of the event (zero without a
	// clock).
	AtMs    int64 `json:"atMs,omitempty"`
	Payload any   `json:"payload,omitempty"`
}

// Metric is the common payload vocabulary for TopicMetric.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Label is one optional dimension (tenant, workload, node). A single
	// label keeps metric emission allocation-free on hot paths.
	Label string `json:"label,omitempty"`
}

// BatchHandler receives delivered events, in publish order. Handlers
// run on the spine's single delivery goroutine, never concurrently with
// each other; the batch slice is only valid for the duration of the call
// (copy events that must be retained). A handler must not block
// indefinitely: a stalled handler stalls every other subscriber and,
// once the queue fills, every publisher.
//
// Handlers MUST NOT call back into the spine's synchronization points —
// Flush, Close, or (on the platform) Incidents()/IncidentCounts()/
// Metrics-after-Flush, which flush internally. The handler runs on the
// drainer, so a Flush from inside it waits on a token the drainer itself
// must ack: a guaranteed self-deadlock that wedges every publisher. For
// the same reason a handler that publishes deadlocks when the queue is
// full; the safe pattern is to accumulate state and let outside readers
// flush.
type BatchHandler func(batch []Event)

// TopicStats is the per-topic accounting ledger. After Flush with no
// concurrent publishers, Delivered == Published exactly, and Published
// equals the number of successful Publish calls for the topic. Dropped
// is always zero — Publish blocks, it never drops — and stays only
// because the wire ledger and the benchmark read the column.
type TopicStats struct {
	Published uint64 `json:"published"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
}

// Stats maps topics to their counters.
type Stats map[Topic]TopicStats

// Topics returns the stat-carrying topics, sorted.
func (s Stats) Topics() []Topic {
	out := make([]Topic, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
