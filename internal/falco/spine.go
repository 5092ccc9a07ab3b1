package falco

// Event-spine integration: detection output leaves the engine through
// Sinks, and the platform's unified telemetry backbone is just another
// sink. SpineSink publishes alerts onto the falco.alert topic keyed by
// workload; wrap it in a RateLimiter for the Lesson-8 alert-fatigue
// control.

import "genio/internal/events"

// SpineSink returns a Sink publishing every emitted alert onto the spine
// as TopicFalcoAlert, keyed by workload and delivered in emit order.
// Publish errors after spine close are dropped: detection history
// already lives in the engine's own alert log.
func SpineSink(s *events.Spine) Sink {
	return SinkFunc(func(a Alert) {
		_ = s.Publish(events.Event{
			Topic: events.TopicFalcoAlert, Key: a.Event.Workload, AtMs: a.AtMs, Payload: a,
		})
	})
}
