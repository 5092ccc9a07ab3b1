package falco

// Alert sinks: Falco forwards alerts to output channels (files, syslog,
// chat, SIEM). Operationally the channel is where alert fatigue happens, so
// GENIO's deployment wraps sinks with per-rule rate limiting and burst
// deduplication — the second half of the Lesson-8 tuning story: even after
// rule exceptions, a noisy rule must not page a human hundreds of times.

import (
	"sync"
)

// Sink receives emitted alerts.
type Sink interface {
	Emit(a Alert)
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(a Alert)

// Emit calls the wrapped function.
func (f SinkFunc) Emit(a Alert) { f(a) }

// MemorySink buffers alerts for inspection (tests, dashboards).
type MemorySink struct {
	mu     sync.Mutex
	alerts []Alert
}

// Emit stores the alert.
func (m *MemorySink) Emit(a Alert) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alerts = append(m.alerts, a)
}

// Alerts returns a copy of buffered alerts.
func (m *MemorySink) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Alert, len(m.alerts))
	copy(out, m.alerts)
	return out
}

// RateLimiter wraps a sink with a per-rule token budget over a logical
// window. The window advances via Tick (the engine host calls it per
// aggregation interval), keeping the limiter deterministic for tests and
// simulations instead of depending on wall-clock time.
//
// Emit and Tick are safe to call concurrently, and the accounting is
// exact with respect to window boundaries: an alert admitted in window N
// reaches the wrapped sink before Tick closes window N (admission and
// forwarding happen in one critical section), so the wrapped sink never
// observes more than perRule alerts for a rule between two Ticks, and
// every emitted alert is counted exactly once — forwarded or suppressed.
//
// The exactness has a price: next.Emit runs while the limiter's lock is
// held. The wrapped sink must not call back into the limiter, and a
// sink that blocks (e.g. a SpineSink under backpressure) stalls Tick,
// Suppressed, and other rules' Emits for the duration.
type RateLimiter struct {
	next Sink
	// perRule is the max alerts forwarded per rule per window.
	perRule int

	mu         sync.Mutex
	counts     map[string]int
	suppressed map[string]int
}

// NewRateLimiter creates a limiter forwarding at most perRule alerts per
// rule per window to next. A nil next discards admitted alerts.
func NewRateLimiter(next Sink, perRule int) *RateLimiter {
	return &RateLimiter{
		next: next, perRule: perRule,
		counts: make(map[string]int), suppressed: make(map[string]int),
	}
}

// Emit forwards the alert unless the rule's budget for this window is
// spent; a summary of suppressed counts is available via Tick and
// Suppressed.
func (r *RateLimiter) Emit(a Alert) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counts[a.Rule] >= r.perRule {
		r.suppressed[a.Rule]++
		return
	}
	r.counts[a.Rule]++
	if r.next != nil {
		r.next.Emit(a)
	}
}

// Tick advances the window, resetting budgets. It returns the number of
// alerts suppressed in the closed window per rule; the returned map is
// detached (safe for the caller to keep).
func (r *RateLimiter) Tick() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.suppressed
	r.counts = make(map[string]int)
	r.suppressed = make(map[string]int)
	return out
}

// Suppressed returns a copy of the current window's per-rule suppressed
// counts without closing the window.
func (r *RateLimiter) Suppressed() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.suppressed))
	for k, v := range r.suppressed {
		out[k] = v
	}
	return out
}
