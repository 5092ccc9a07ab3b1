package events

// Context-aware spine surface: PublishContext bounds backpressure
// waits, FlushContext bounds flush waits; neither may wedge the queue or
// lose accounting.

import (
	"context"
	"errors"
	"testing"
	"time"
)

// blockedSpine builds a capacity-one spine whose single
// subscriber blocks until release is closed, then fills the pipeline:
// one event held inside the handler, one sitting in the queue.
func blockedSpine(t *testing.T) (s *Spine, release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	entered := make(chan struct{}, 16)
	s = newSpine(1)
	if _, err := s.Subscribe("slow", nil, func(batch []Event) {
		entered <- struct{}{}
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	ev := Event{Topic: TopicMetric, Key: "k", Payload: Metric{Name: "m", Value: 1}}
	// First publish: drained into the (now blocked) handler.
	if err := s.Publish(ev); err != nil {
		t.Fatal(err)
	}
	<-entered // the handler holds event 1; the queue is empty again
	// Second publish: sits in the full queue behind the blocked handler.
	if err := s.Publish(ev); err != nil {
		t.Fatal(err)
	}
	return s, release
}

func TestPublishContextBoundsBlockBackpressure(t *testing.T) {
	s, release := blockedSpine(t)
	defer func() {
		close(release)
		s.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.PublishContext(ctx, Event{Topic: TopicMetric, Key: "k", Payload: Metric{Name: "m"}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PublishContext = %v, want DeadlineExceeded", err)
	}
	// The abandoned event is neither published nor dropped: the ledger
	// still accounts exactly the two accepted events.
	st := s.Stats()[TopicMetric]
	if st.Published != 2 || st.Dropped != 0 {
		t.Fatalf("ledger = %+v, want published=2 dropped=0", st)
	}
}

func TestFlushContextBoundsWait(t *testing.T) {
	s, release := blockedSpine(t)
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.FlushContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FlushContext = %v, want DeadlineExceeded", err)
	}
	close(release)
	// With the handler released, a fresh flush completes and the ledger
	// balances.
	if err := s.FlushContext(context.Background()); err != nil {
		t.Fatalf("FlushContext after release: %v", err)
	}
	st := s.Stats()[TopicMetric]
	if st.Delivered != st.Published {
		t.Fatalf("ledger = %+v, want delivered == published", st)
	}
}

func TestPublishContextLiveContextBehavesLikePublish(t *testing.T) {
	s := NewSpine()
	defer s.Close()
	var got int
	if _, err := s.Subscribe("count", []Topic{TopicDeployLifecycle}, func(batch []Event) {
		got += len(batch)
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.PublishContext(context.Background(), Event{Topic: TopicDeployLifecycle, Key: "w"}); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if got != 10 {
		t.Fatalf("delivered %d, want 10", got)
	}
}

func TestPublishContextAfterCloseErrors(t *testing.T) {
	s := NewSpine()
	s.Close()
	err := s.PublishContext(context.Background(), Event{Topic: TopicMetric})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("PublishContext after close = %v, want ErrClosed", err)
	}
	if err := s.FlushContext(context.Background()); err != nil {
		t.Fatalf("FlushContext after close = %v, want nil", err)
	}
}

func TestHasSubscribers(t *testing.T) {
	s := NewSpine()
	defer s.Close()
	if s.HasSubscribers(TopicDeployLifecycle) {
		t.Fatal("fresh spine reports subscribers")
	}
	sub, err := s.Subscribe("one", []Topic{TopicDeployLifecycle}, func([]Event) {})
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasSubscribers(TopicDeployLifecycle) {
		t.Fatal("topic-scoped subscription not reported")
	}
	if s.HasSubscribers(TopicMetric) {
		t.Fatal("unrelated topic reported subscribed")
	}
	all, err := s.Subscribe("all", nil, func([]Event) {})
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasSubscribers(TopicMetric) {
		t.Fatal("wildcard subscription must match every topic")
	}
	sub.Cancel()
	all.Cancel()
	if s.HasSubscribers(TopicDeployLifecycle) {
		t.Fatal("cancelled subscriptions still reported")
	}
}
