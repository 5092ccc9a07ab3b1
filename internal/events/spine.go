package events

// The spine: one bounded queue, one drainer goroutine, per-subscriber
// fan-out with batch delivery. Flush is a token pushed through the
// queue — when it pops out, everything enqueued before it has been
// delivered to every subscriber; Close flips a flag under a write lock
// (so no publisher can send on a closed channel), closes the queue, and
// every concurrent caller blocks until the drain completes.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// queueCapacity bounds the events waiting for delivery before Publish
// blocks; batchSize bounds subscriber-call overhead, not latency — the
// drainer never waits to fill a batch.
const (
	queueCapacity = 1024
	batchSize     = 64
)

// ErrClosed is returned by Publish and Subscribe after Close.
var ErrClosed = errors.New("events: spine closed")

type queueMsg struct {
	ev Event
	// flush, when non-nil, is a synchronization token: the drainer
	// delivers everything queued ahead of it, then closes it.
	flush chan struct{}
}

// Subscription is one registered subscriber; Cancel detaches it.
type Subscription struct {
	name    string
	topics  map[Topic]bool // nil = every topic
	handler BatchHandler
	spine   *Spine
}

// Cancel detaches the subscription; events published afterwards are no
// longer delivered to it. Idempotent.
func (s *Subscription) Cancel() {
	if s.spine != nil {
		s.spine.unsubscribe(s)
	}
}

type topicCounters struct {
	published, delivered atomic.Uint64
}

// Spine is the pub/sub backbone. Safe for concurrent use.
type Spine struct {
	// stateMu guards closed so no producer can send on a closed queue;
	// publishers and flushers share it, Close takes it exclusively.
	stateMu sync.RWMutex
	closed  bool

	queue   chan queueMsg
	drained chan struct{} // closed when the drainer has exited

	// regMu serializes writers of the subscriber list, which is
	// published as a copy-on-write snapshot through an atomic pointer so
	// the publish/deliver hot paths read lock-free.
	regMu sync.Mutex
	subs  atomic.Pointer[[]*Subscription]

	// cmu serializes growth of the per-topic counter map; reads go
	// through the atomic snapshot. The four built-in topics are
	// pre-registered, so growth only happens on first publish of a
	// custom topic.
	cmu      sync.Mutex
	counters atomic.Pointer[map[Topic]*topicCounters]
}

// NewSpine builds and starts a spine.
func NewSpine() *Spine { return newSpine(queueCapacity) }

// newSpine is NewSpine with a chosen queue capacity, so in-package tests
// can reach backpressure with a handful of events.
func newSpine(capacity int) *Spine {
	s := &Spine{
		queue:   make(chan queueMsg, capacity),
		drained: make(chan struct{}),
	}
	subs := []*Subscription{}
	s.subs.Store(&subs)
	counters := make(map[Topic]*topicCounters, 4)
	for _, t := range BuiltinTopics() {
		counters[t] = &topicCounters{}
	}
	s.counters.Store(&counters)
	go s.run()
	return s
}

// counter resolves a topic's counters lock-free; the built-in topics are
// pre-registered, so the slow copy-on-write path only runs on the first
// publish of each custom topic.
func (s *Spine) counter(t Topic) *topicCounters {
	if c := (*s.counters.Load())[t]; c != nil {
		return c
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	cur := *s.counters.Load()
	if c := cur[t]; c != nil {
		return c
	}
	next := make(map[Topic]*topicCounters, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	c := &topicCounters{}
	next[t] = c
	s.counters.Store(&next)
	return c
}

// Subscribe registers a handler for the given topics (nil or empty =
// every topic) and returns the subscription handle. The handler is
// called from the delivery goroutine — see BatchHandler for the contract.
func (s *Spine) Subscribe(name string, topics []Topic, h BatchHandler) (*Subscription, error) {
	// Hold the state lock across registration so a racing Close cannot
	// complete between the closed check and the registry update — a
	// subscription returned with a nil error is attached to a live
	// spine. Lock order: stateMu before regMu (Publish/deliver never
	// take regMu, so there is no inversion).
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	sub := &Subscription{name: name, handler: h, spine: s}
	if len(topics) > 0 {
		sub.topics = make(map[Topic]bool, len(topics))
		for _, t := range topics {
			sub.topics[t] = true
		}
	}
	s.regMu.Lock()
	// Copy-on-write so in-flight deliveries iterating the old slice are
	// unaffected.
	cur := *s.subs.Load()
	subs := make([]*Subscription, len(cur), len(cur)+1)
	copy(subs, cur)
	subs = append(subs, sub)
	s.subs.Store(&subs)
	s.regMu.Unlock()
	return sub, nil
}

// HasSubscribers reports whether any live subscription matches the
// topic. Lock-free (reads the copy-on-write subscriber snapshot), so hot
// paths can elide publishing observer-only telemetry — e.g. deployment
// lifecycle events — when nobody is listening. Callers must tolerate the
// inherent race: a subscription registered after the check misses events
// published before it either way.
func (s *Spine) HasSubscribers(t Topic) bool {
	for _, sub := range *s.subs.Load() {
		if sub.topics == nil || sub.topics[t] {
			return true
		}
	}
	return false
}

func (s *Spine) unsubscribe(sub *Subscription) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	cur := *s.subs.Load()
	subs := make([]*Subscription, 0, len(cur))
	for _, x := range cur {
		if x != sub {
			subs = append(subs, x)
		}
	}
	s.subs.Store(&subs)
}

// Publish enqueues an event, waiting for queue space when the queue is
// full: nothing is ever dropped. After Close it returns ErrClosed.
func (s *Spine) Publish(e Event) error {
	return s.publish(nil, e)
}

// PublishContext is Publish with bounded waiting: a full queue normally
// stalls the producer indefinitely, but here a done ctx abandons the
// attempt and returns the context error — the event is neither published
// nor counted (the caller still owns it). After Close it returns
// ErrClosed.
func (s *Spine) PublishContext(ctx context.Context, e Event) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.publish(ctx, e)
}

// publish is the shared body: ctx is nil (or never-done) on the
// unbounded path, which keeps the hot path on a plain channel send
// instead of a select.
func (s *Spine) publish(ctx context.Context, e Event) error {
	c := s.counter(e.Topic)
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done == nil {
		s.queue <- queueMsg{ev: e}
	} else {
		select {
		case s.queue <- queueMsg{ev: e}:
		case <-done:
			return ctx.Err()
		}
	}
	c.published.Add(1)
	return nil
}

// Flush blocks until every event published before the call has been
// delivered to every subscriber. A no-op after Close (Close already
// drained).
func (s *Spine) Flush() {
	_ = s.FlushContext(context.Background())
}

// FlushContext is Flush with bounded waiting: a done ctx abandons the
// wait and returns the context error. A token already pushed keeps
// flowing (its acknowledgement is simply discarded), so an abandoned
// flush never wedges the queue. A nil return means every event published
// before the call was delivered.
func (s *Spine) FlushContext(ctx context.Context) error {
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		return nil
	}
	token := make(chan struct{})
	select {
	case s.queue <- queueMsg{flush: token}:
	case <-ctx.Done():
		s.stateMu.RUnlock()
		return ctx.Err()
	}
	s.stateMu.RUnlock()
	select {
	case <-token:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the queue and stops the drainer goroutine. Idempotent and
// safe to call concurrently: every caller — not just the one that flips
// the flag — blocks until the drain completes.
func (s *Spine) Close() {
	s.stateMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.stateMu.Unlock()
	<-s.drained
}

// Stats snapshots the per-topic counters.
func (s *Spine) Stats() Stats {
	counters := *s.counters.Load()
	out := make(Stats, len(counters))
	for t, c := range counters {
		out[t] = TopicStats{
			Published: c.published.Load(),
			Delivered: c.delivered.Load(),
		}
	}
	return out
}

// run drains the queue: it accumulates a batch opportunistically (never
// waiting to fill one — it is the only receiver, so an empty queue means
// nothing more is ready), delivers it to every matching subscriber, and
// acks a flush token only after everything ahead of it is out. Every
// event is delivered before the loop ends: the last one always sees an
// empty queue.
func (s *Spine) run() {
	defer close(s.drained)
	batch := make([]Event, 0, batchSize)
	for m := range s.queue {
		if m.flush == nil {
			batch = append(batch, m.ev)
			if len(batch) < batchSize && len(s.queue) > 0 {
				continue
			}
		}
		s.deliver(batch)
		batch = batch[:0]
		if m.flush != nil {
			close(m.flush)
		}
	}
}

// deliver fans a batch out to every matching subscriber, then counts the
// events delivered (once per event, not per subscriber).
func (s *Spine) deliver(batch []Event) {
	if len(batch) == 0 {
		return
	}
	subs := *s.subs.Load()
	for _, sub := range subs {
		if sub.topics == nil {
			sub.handler(batch)
			continue
		}
		var filtered []Event
		for _, e := range batch {
			if sub.topics[e.Topic] {
				filtered = append(filtered, e)
			}
		}
		if len(filtered) > 0 {
			sub.handler(filtered)
		}
	}
	// Coalesce counter updates over same-topic runs — batches are
	// typically dominated by one topic.
	for i := 0; i < len(batch); {
		t := batch[i].Topic
		j := i + 1
		for j < len(batch) && batch[j].Topic == t {
			j++
		}
		s.counter(t).delivered.Add(uint64(j - i))
		i = j
	}
}
