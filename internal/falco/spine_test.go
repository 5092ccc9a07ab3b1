package falco

import (
	"sync"
	"testing"

	"genio/internal/events"
	"genio/internal/trace"
)

// countingSink tallies per-rule deliveries; swap() closes a counting
// window atomically with the limiter's Tick by sharing its caller's
// locking discipline (the test ticks and swaps back to back with no
// emitters mid-window — exactness is asserted on totals instead).
type countingSink struct {
	mu     sync.Mutex
	counts map[string]int
	total  int
}

func newCountingSink() *countingSink { return &countingSink{counts: map[string]int{}} }

func (c *countingSink) Emit(a Alert) {
	c.mu.Lock()
	c.counts[a.Rule]++
	c.total++
	c.mu.Unlock()
}

func (c *countingSink) snapshotTotal() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// TestRateLimiterConcurrentEmitTickExact is the -race regression for the
// limiter: hammer Emit from many goroutines while Tick concurrently
// closes windows, then check the books balance exactly — every emitted
// alert was either forwarded or counted suppressed, no double counting,
// no losses.
func TestRateLimiterConcurrentEmitTickExact(t *testing.T) {
	inner := newCountingSink()
	const perRule = 5
	rl := NewRateLimiter(inner, perRule)

	const emitters = 8
	const perEmitter = 500
	rules := []string{"egress", "shell", "mount"}

	suppressedTotal := 0
	var suppMu sync.Mutex

	var emitWG, tickWG sync.WaitGroup
	stop := make(chan struct{})
	tickWG.Add(1)
	go func() { // concurrent ticker
		defer tickWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			win := rl.Tick()
			suppMu.Lock()
			for _, n := range win {
				suppressedTotal += n
			}
			suppMu.Unlock()
		}
	}()

	for g := 0; g < emitters; g++ {
		g := g
		emitWG.Add(1)
		go func() {
			defer emitWG.Done()
			for i := 0; i < perEmitter; i++ {
				rl.Emit(Alert{Rule: rules[(g+i)%len(rules)]})
			}
		}()
	}

	emitWG.Wait()
	close(stop)
	tickWG.Wait()

	// Close the final window.
	final := rl.Tick()
	suppMu.Lock()
	for _, n := range final {
		suppressedTotal += n
	}
	suppMu.Unlock()

	forwarded := inner.snapshotTotal()
	emitted := emitters * perEmitter
	if forwarded+suppressedTotal != emitted {
		t.Fatalf("accounting leak: forwarded %d + suppressed %d != emitted %d",
			forwarded, suppressedTotal, emitted)
	}
	if forwarded == 0 || suppressedTotal == 0 {
		t.Fatalf("degenerate run: forwarded=%d suppressed=%d", forwarded, suppressedTotal)
	}
}

// TestRateLimiterWindowBoundaryExact: with no concurrent ticker, the
// wrapped sink sees at most perRule alerts per rule between two Ticks —
// admission and forwarding are one critical section, so a Tick can never
// strand an admitted-but-undelivered alert across the boundary.
func TestRateLimiterWindowBoundaryExact(t *testing.T) {
	inner := newCountingSink()
	const perRule = 3
	rl := NewRateLimiter(inner, perRule)
	for window := 0; window < 50; window++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					rl.Emit(Alert{Rule: "noisy"})
				}
			}()
		}
		wg.Wait()
		suppressed := rl.Tick()["noisy"]
		inner.mu.Lock()
		forwarded := inner.counts["noisy"]
		inner.counts["noisy"] = 0
		inner.mu.Unlock()
		if forwarded != perRule {
			t.Fatalf("window %d: forwarded %d, want exactly %d", window, forwarded, perRule)
		}
		if forwarded+suppressed != 80 {
			t.Fatalf("window %d: forwarded %d + suppressed %d != 80 emitted", window, forwarded, suppressed)
		}
	}
}

func TestSpineSinkPublishesAlerts(t *testing.T) {
	s := events.NewSpine()
	defer s.Close()
	var mu sync.Mutex
	var got []Alert
	if _, err := s.Subscribe("alerts", []events.Topic{events.TopicFalcoAlert}, func(b []events.Event) {
		mu.Lock()
		for _, e := range b {
			if a, ok := e.Payload.(Alert); ok {
				got = append(got, a)
			}
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(DefaultRules())
	raised := e.ConsumeAllTo(trace.ReverseShellTrace("web", "acme"), SpineSink(s))
	if len(raised) == 0 {
		t.Fatal("no alerts raised")
	}
	s.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(raised) {
		t.Fatalf("spine delivered %d alerts, engine raised %d", len(got), len(raised))
	}
	for _, a := range got {
		if a.Event.Workload != "web" {
			t.Fatalf("alert for wrong workload: %+v", a)
		}
	}
}
