package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"genio/api"
	"genio/internal/core"
	"genio/internal/events"
	"genio/internal/orchestrator"
)

// lifecycle wraps lifecycle events as the spine batch the log's handler
// receives.
func lifecycle(evs ...core.LifecycleEvent) []events.Event {
	batch := make([]events.Event, len(evs))
	for i, ev := range evs {
		batch[i] = events.Event{Topic: events.TopicDeployLifecycle, Key: ev.Workload, Payload: ev}
	}
	return batch
}

// TestServerCloseReleasesWatchFeeder: the event log's goroutine and its
// spine subscription must be tied to the SERVER's lifetime, not the
// process's. Before the fix the log was started on context.Background(),
// so closing a server while its platform lived leaked both until the
// platform itself shut down.
func TestServerCloseReleasesWatchFeeder(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{})
	log, err := srv.eventLog()
	if err != nil {
		t.Fatalf("eventLog: %v", err)
	}
	srv.Close()
	srv.Close() // idempotent
	// The log's goroutine observes the cancelled context and marks the
	// log closed; poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		log.mu.Lock()
		closed := log.closed
		log.mu.Unlock()
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("event log never closed after server Close — feeder goroutine leaked")
		}
		time.Sleep(time.Millisecond)
	}
	// The platform the server did not own is still fully alive.
	if _, err := p.AddEdgeNode("olt-09", orchestrator.Resources{CPUMilli: 1000, MemoryMB: 1024}); err != nil {
		t.Fatalf("platform must survive server close: %v", err)
	}
}

// settledGoroutines waits until the goroutine count holds still for a
// few consecutive reads and returns it.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); same < 10 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestEventLogIsOneGoroutine: the log does its work in the spine's
// handler, so starting it adds exactly one long-lived goroutine — the
// one waiting for the server or the platform to end — and closing the
// server takes it away again.
func TestEventLogIsOneGoroutine(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{})
	before := settledGoroutines()
	if _, err := srv.eventLog(); err != nil {
		t.Fatalf("eventLog: %v", err)
	}
	if _, err := srv.eventLog(); err != nil { // shared, not a second log
		t.Fatalf("eventLog: %v", err)
	}
	if got := settledGoroutines() - before; got != 1 {
		t.Fatalf("starting the event log added %d goroutines, want 1", got)
	}
	srv.Close()
	if got := settledGoroutines(); got != before {
		t.Fatalf("after server Close: %d goroutines, want %d", got, before)
	}
}

// TestEventLogFilledByFlush: the log is a spine subscriber, so once
// p.Flush returns every lifecycle event published before it is in the
// log, id assigned and frame rendered — no later hand-off to wait for.
func TestEventLogFilledByFlush(t *testing.T) {
	p := testPlatform(t)
	srv := New(p, Options{})
	t.Cleanup(srv.Close)
	log, err := srv.eventLog()
	if err != nil {
		t.Fatalf("eventLog: %v", err)
	}
	for i := 0; i < 3; i++ {
		ev := core.LifecycleEvent{Workload: fmt.Sprintf("wl-%d", i), Tenant: "acme", State: core.StateRunning}
		if err := p.PublishEvent(lifecycle(ev)[0]); err != nil {
			t.Fatalf("publish: %v", err)
		}
		p.Flush()
		if got := log.latest(); got != uint64(i+1) {
			t.Fatalf("after Flush the log's latest id is %d, want %d", got, i+1)
		}
	}
	replay, sub := log.subscribe(0)
	sub.cancel()
	if len(replay) != 3 || !bytes.Contains(replay[2].frame, []byte(`"workload":"wl-2"`)) {
		t.Fatalf("log holds %d events, want 3 ending with wl-2: %+v", len(replay), replay)
	}
}

// TestEventLogBoundedRetention: the replay ring must retain at most its
// capacity and never pin evicted events. The earlier tail re-slicing
// kept evicted entries reachable through the shared backing array
// (roughly doubling retained memory); the circular buffer overwrites
// slots in place, so the backing array IS the retention bound.
func TestEventLogBoundedRetention(t *testing.T) {
	const capacity = 8
	l := &eventLog{buf: make([]loggedEvent, capacity), nextID: 1, subs: make(map[*logSub]struct{})}
	const total = 5 * capacity
	for i := 0; i < total; i++ {
		l.append(lifecycle(core.LifecycleEvent{Workload: fmt.Sprintf("wl-%03d", i)}))
	}
	l.mu.Lock()
	bufLen, size := len(l.buf), l.size
	l.mu.Unlock()
	if bufLen != capacity || size != capacity {
		t.Fatalf("retention grew: len(buf)=%d size=%d, want %d", bufLen, size, capacity)
	}
	// Replay returns exactly the newest cap events, oldest first, with
	// contiguous ids.
	replay, sub := l.subscribe(0)
	defer sub.cancel()
	if len(replay) != capacity {
		t.Fatalf("replay returned %d events, want %d", len(replay), capacity)
	}
	for i, le := range replay {
		wantID := uint64(total - capacity + 1 + i)
		if le.id != wantID {
			t.Fatalf("replay[%d].id = %d, want %d", i, le.id, wantID)
		}
		if want := fmt.Sprintf("wl-%03d", total-capacity+i); le.ev.Workload != want {
			t.Fatalf("replay[%d].workload = %q, want %q", i, le.ev.Workload, want)
		}
	}
}

// TestRenderFrameMatchesSSEWire pins the frame layout handleWatch used
// to assemble per-connection: "id: N\ndata: <json>\n\n". Encode-once
// must not change a single byte on the wire, and neither may the wire
// codec, escapes included.
func TestRenderFrameMatchesSSEWire(t *testing.T) {
	for _, ev := range []api.LifecycleEvent{
		{Workload: "edge-dns", Tenant: "acme", State: "placed", Node: "olt-01"},
		{Workload: "a<b>&c", Tenant: "t\"q\\", From: "scanning", State: "rejected", Node: "olt-\u2028",
			Detail: "sast: line1\nline2\t\x01\xff caf\u00e9", AtMs: 1700000000123},
	} {
		frame := renderFrame(42, ev)
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("id: 42\ndata: %s\n\n", data)
		if string(frame) != want {
			t.Fatalf("frame = %q, want %q", frame, want)
		}
	}
}

// TestWatchFanoutEncodesOnce is the alloc-pinning regression for the
// encode-once fan-out: appending one event must cost O(1) allocations
// regardless of subscriber count — one retained frame shared by every
// subscriber, not one marshal per connection. Before the fix each of
// the N watch connections marshalled the event independently.
func TestWatchFanoutEncodesOnce(t *testing.T) {
	const subscribers = 100
	l := &eventLog{buf: make([]loggedEvent, 256), nextID: 1, subs: make(map[*logSub]struct{})}
	subs := make([]*logSub, subscribers)
	for i := range subs {
		_, sub := l.subscribe(0)
		// Pre-grow the queue so append never reallocates mid-measurement;
		// queue growth is amortized-O(1) and not what this test pins.
		sub.queue = make([]loggedEvent, 0, 4096)
		subs[i] = sub
	}
	ev := lifecycle(core.LifecycleEvent{Workload: "edge-dns", Tenant: "acme", State: "placed", Node: "olt-01"})
	l.append(ev) // warm the frame pool's scratch buffer

	allocs := testing.AllocsPerRun(100, func() { l.append(ev) })
	// One retained frame + encoder scratch: a handful of allocations,
	// and critically NOT proportional to the 100 subscribers.
	if allocs > 8 {
		t.Fatalf("append allocated %.1f objects across %d subscribers, want O(1) (<= 8)", allocs, subscribers)
	}

	// Every subscriber's queued copy shares the SAME frame bytes.
	l.mu.Lock()
	defer l.mu.Unlock()
	first := subs[0].queue[len(subs[0].queue)-1].frame
	if len(first) == 0 {
		t.Fatal("queued event has no rendered frame")
	}
	for i, sub := range subs {
		got := sub.queue[len(sub.queue)-1].frame
		if &got[0] != &first[0] {
			t.Fatalf("subscriber %d holds a distinct frame copy — event was encoded more than once", i)
		}
	}
}

// TestWatchFanoutPublishStorm drives 100 live subscribers through a
// concurrent publish storm (run under -race in CI): every subscriber
// must observe every event, in id order, with an intact frame.
func TestWatchFanoutPublishStorm(t *testing.T) {
	const (
		subscribers = 100
		events      = 200
	)
	l := &eventLog{buf: make([]loggedEvent, events), nextID: 1, subs: make(map[*logSub]struct{})}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, subscribers)
	for i := 0; i < subscribers; i++ {
		_, sub := l.subscribe(0)
		wg.Add(1)
		go func(i int, sub *logSub) {
			defer wg.Done()
			defer sub.cancel()
			var lastID uint64
			for n := 0; n < events; {
				batch, ok := sub.next(ctx)
				if !ok {
					errs <- fmt.Errorf("subscriber %d: stream ended after %d/%d events", i, n, events)
					return
				}
				for _, le := range batch {
					if le.id != lastID+1 {
						errs <- fmt.Errorf("subscriber %d: id %d after %d", i, le.id, lastID)
						return
					}
					lastID = le.id
					if want := fmt.Sprintf("id: %d\ndata: ", le.id); !bytes.HasPrefix(le.frame, []byte(want)) {
						errs <- fmt.Errorf("subscriber %d: malformed frame %q", i, le.frame)
						return
					}
				}
				n += len(batch)
			}
		}(i, sub)
	}
	// Mixed batch sizes: singles and bursts share one id sequence.
	for n := 0; n < events; {
		batch := make([]core.LifecycleEvent, min(1+n%3, events-n))
		for i := range batch {
			batch[i] = core.LifecycleEvent{Workload: fmt.Sprintf("wl-%03d", n+i), State: "placed"}
		}
		l.append(lifecycle(batch...))
		n += len(batch)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
