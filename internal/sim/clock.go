package sim

import "sync"

// Clock is the deterministic virtual clock every simulated subsystem
// shares. Time only moves when a step (or an injected fault, like a slow
// scanner) advances it, so a run's timeline is a pure function of the
// scenario — wall-clock speed of the host never leaks into a report.
// Safe for concurrent use: admission controllers advance it from deploy
// goroutines.
type Clock struct {
	mu sync.Mutex
	ms int64
}

// NewClock creates a clock at the given origin (milliseconds).
func NewClock(originMs int64) *Clock {
	return &Clock{ms: originMs}
}

// NowMs returns the current virtual time in milliseconds.
func (c *Clock) NowMs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ms
}

// Advance moves the clock forward by d milliseconds and returns the new
// time. Negative d is ignored: virtual time never rewinds.
func (c *Clock) Advance(d int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.ms += d
	}
	return c.ms
}

// Source adapts the clock to the func() int64 seam the platform layers
// accept (core.WithClock, Cluster.SetClock, falco SetTimeSource).
func (c *Clock) Source() func() int64 {
	return c.NowMs
}
