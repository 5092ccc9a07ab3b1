package events

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector is a test subscriber accumulating delivered events.
type collector struct {
	mu  sync.Mutex
	evs []Event
}

func (c *collector) handle(batch []Event) {
	c.mu.Lock()
	c.evs = append(c.evs, batch...)
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.evs)
}

func (c *collector) events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.evs))
	copy(out, c.evs)
	return out
}

func TestPublishSubscribeFlush(t *testing.T) {
	s := NewSpine()
	defer s.Close()
	c := &collector{}
	if _, err := s.Subscribe("c", []Topic{TopicIncident}, c.handle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Publish(Event{Topic: TopicIncident, Key: fmt.Sprintf("k%d", i%7), Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if got := c.len(); got != 100 {
		t.Fatalf("delivered %d events after flush, want 100", got)
	}
	st := s.Stats()[TopicIncident]
	if st.Published != 100 || st.Delivered != 100 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTopicFiltering(t *testing.T) {
	s := NewSpine()
	defer s.Close()
	inc, all := &collector{}, &collector{}
	if _, err := s.Subscribe("inc", []Topic{TopicIncident}, inc.handle); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe("all", nil, all.handle); err != nil {
		t.Fatal(err)
	}
	s.Publish(Event{Topic: TopicIncident, Key: "a"})
	s.Publish(Event{Topic: TopicMetric, Key: "a"})
	s.Publish(Event{Topic: TopicAudit, Key: "b"})
	s.Flush()
	if inc.len() != 1 {
		t.Fatalf("incident subscriber saw %d events, want 1", inc.len())
	}
	if all.len() != 3 {
		t.Fatalf("wildcard subscriber saw %d events, want 3", all.len())
	}
}

// TestPerKeyOrdering: one queue means one total order. Concurrent
// publishers each see their own sequence delivered in publish order, and
// a sequential publisher mixing topics and keys sees exactly the order it
// published — across topics and keys, whatever batching does.
func TestPerKeyOrdering(t *testing.T) {
	s := newSpine(8)
	defer s.Close()
	c := &collector{}
	if _, err := s.Subscribe("c", nil, c.handle); err != nil {
		t.Fatal(err)
	}
	type stamp struct{ pub, seq int }
	const publishers, perPublisher = 4, 200
	topics := BuiltinTopics()
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				s.Publish(Event{Topic: topics[(g+i)%len(topics)], Key: fmt.Sprintf("k%d", i%7), Payload: stamp{g, i}})
			}
		}()
	}
	wg.Wait()
	// The sequential publisher: pub -1, after everyone else is enqueued.
	for i := 0; i < perPublisher; i++ {
		s.Publish(Event{Topic: topics[i%len(topics)], Key: fmt.Sprintf("k%d", i%5), Payload: stamp{-1, i}})
	}
	s.Flush()
	evs := c.events()
	if len(evs) != (publishers+1)*perPublisher {
		t.Fatalf("delivered %d events, want %d", len(evs), (publishers+1)*perPublisher)
	}
	next := map[int]int{}
	for i, e := range evs {
		st := e.Payload.(stamp)
		if st.seq != next[st.pub] {
			t.Fatalf("publisher %d: event %d arrived when %d was expected (order broken)", st.pub, st.seq, next[st.pub])
		}
		next[st.pub]++
		// Everything the sequential publisher sent was published after
		// every concurrent event, so it must be the tail of the log.
		if want := i >= publishers*perPublisher; (st.pub == -1) != want {
			t.Fatalf("event %d of the log is from publisher %d: sequential tail interleaved with earlier publishes", i, st.pub)
		}
	}
}

// TestHandlersNeverOverlap: every handler runs on the one delivery
// goroutine, so two subscribers are never inside their handlers at the
// same time (run under -race: the unsynchronized counter is the proof).
func TestHandlersNeverOverlap(t *testing.T) {
	s := newSpine(8)
	defer s.Close()
	var inside atomic.Int32
	calls := 0 // written by both handlers with no lock
	handler := func([]Event) {
		if n := inside.Add(1); n != 1 {
			t.Errorf("%d handlers running at once", n)
		}
		calls++
		runtime.Gosched()
		inside.Add(-1)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := s.Subscribe(name, nil, handler); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Publish(Event{Topic: TopicMetric, Key: fmt.Sprintf("g%d", g)})
			}
		}()
	}
	wg.Wait()
	s.Flush()
	if calls == 0 || calls%2 != 0 {
		t.Fatalf("handlers ran %d times, want a positive even count (two subscribers per batch)", calls)
	}
}

func TestPublishAfterCloseErrors(t *testing.T) {
	s := NewSpine()
	s.Publish(Event{Topic: TopicIncident, Key: "a"})
	s.Close()
	if err := s.Publish(Event{Topic: TopicIncident, Key: "a"}); err != ErrClosed {
		t.Fatalf("publish after close: err = %v, want ErrClosed", err)
	}
	if _, err := s.Subscribe("late", nil, func([]Event) {}); err != ErrClosed {
		t.Fatalf("subscribe after close: err = %v, want ErrClosed", err)
	}
	s.Flush() // must not block or panic
	s.Close() // idempotent
}

// TestCloseDrainsForEveryCaller: all concurrent Close calls block until
// the queued backlog has been delivered.
func TestCloseDrainsForEveryCaller(t *testing.T) {
	s := NewSpine()
	var delivered atomic.Int64
	if _, err := s.Subscribe("count", nil, func(b []Event) {
		delivered.Add(int64(len(b)))
	}); err != nil {
		t.Fatal(err)
	}
	const n = 800
	for i := 0; i < n; i++ {
		s.Publish(Event{Topic: TopicIncident, Key: fmt.Sprintf("k%d", i%5)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
			if got := delivered.Load(); got != n {
				t.Errorf("only %d/%d events delivered when Close returned", got, n)
			}
		}()
	}
	wg.Wait()
}

func TestBlockPolicyLosesNothing(t *testing.T) {
	s := newSpine(2)
	defer s.Close()
	var delivered atomic.Int64
	if _, err := s.Subscribe("count", nil, func(b []Event) {
		delivered.Add(int64(len(b)))
	}); err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := s.Publish(Event{Topic: TopicIncident, Key: fmt.Sprintf("p%d", g)}); err != nil {
					t.Errorf("publish: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	s.Flush()
	if got := delivered.Load(); got != producers*perProducer {
		t.Fatalf("delivered %d, want %d", got, producers*perProducer)
	}
	if st := s.Stats()[TopicIncident]; st.Dropped != 0 {
		t.Fatalf("block policy dropped %d events", st.Dropped)
	}
}

func TestSubscriptionCancel(t *testing.T) {
	s := NewSpine()
	defer s.Close()
	c := &collector{}
	sub, err := s.Subscribe("c", nil, c.handle)
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(Event{Topic: TopicAudit})
	s.Flush()
	sub.Cancel()
	sub.Cancel() // idempotent
	s.Publish(Event{Topic: TopicAudit})
	s.Flush()
	if c.len() != 1 {
		t.Fatalf("cancelled subscriber saw %d events, want 1", c.len())
	}
}

// TestFlushIsReadYourWrites: a goroutine that published then flushed
// must observe its own events in any subscriber's state.
func TestFlushIsReadYourWrites(t *testing.T) {
	s := NewSpine()
	defer s.Close()
	var count atomic.Int64
	if _, err := s.Subscribe("count", nil, func(b []Event) {
		count.Add(int64(len(b)))
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Publish(Event{Topic: TopicIncident, Key: fmt.Sprintf("g%d", g)})
				s.Flush()
				if got := count.Load(); got < int64(i+1) {
					t.Errorf("after %d publishes + flush, subscriber saw %d", i+1, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// drainers counts the live goroutines a spine constructor started.
func drainers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by genio/internal/events.newSpine")
}

// waitDrainers polls until exactly want drain loops are alive (an exited
// goroutine takes a moment to leave the runtime's table).
func waitDrainers(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for drainers() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d drainer goroutines alive, want %d", drainers(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineLeak: a spine runs exactly one drainer, and closing it
// stops that drainer. A goleak-style check without the dependency:
// goroutine count returns to baseline after many spine lifecycles.
func TestNoGoroutineLeak(t *testing.T) {
	waitDrainers(t, 0) // spines closed by earlier tests
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := NewSpine()
		if got := drainers(); got != 1 {
			t.Fatalf("a fresh spine runs %d drainer goroutines, want exactly 1", got)
		}
		if _, err := s.Subscribe("c", nil, func([]Event) {}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			s.Publish(Event{Topic: TopicIncident, Key: fmt.Sprintf("k%d", j)})
		}
		s.Close()
		waitDrainers(t, 0)
	}
	// Allow the runtime a moment to retire exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestConcurrentEverything is the race-detector stress: publishers,
// flushers, subscribers coming and going, stats readers, and a final
// close, all at once.
func TestConcurrentEverything(t *testing.T) {
	s := newSpine(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := s.Publish(Event{Topic: TopicIncident, Key: fmt.Sprintf("g%d", g%3)}); err != nil {
					return // spine closed under us: fine
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sub, err := s.Subscribe("churn", []Topic{TopicIncident}, func([]Event) {})
			if err != nil {
				return
			}
			s.Stats()
			sub.Cancel()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s.Flush()
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Close()
}
