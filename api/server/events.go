package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"sync"

	"genio/api"
	"genio/internal/core"
	"genio/internal/events"
)

// watchReplay is how many lifecycle events the log retains for
// Last-Event-ID resume; a reconnect asking for older events gets only
// what is retained.
const watchReplay = 1024

// loggedEvent is one lifecycle event with its server-assigned stream
// id — the SSE `id:` field, monotonically increasing for the server's
// lifetime — and the fully rendered SSE frame ("id: N\ndata: {...}\n\n")
// encoded ONCE at append time. Every subscriber (live and replay)
// writes the same shared bytes: a 100-subscriber watch costs one
// marshal per event, not 100. The frame is immutable after append, so
// sharing it across connections is race-free.
type loggedEvent struct {
	id    uint64
	ev    api.LifecycleEvent
	frame []byte
}

// framePool recycles the encoder scratch frames are built in; the
// retained frame itself is a single exact-size allocation per event
// (it lives as long as the replay ring, so it cannot be pooled).
var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// renderFrame encodes one event into its SSE frame bytes.
func renderFrame(id uint64, ev api.LifecycleEvent) []byte {
	scratch := framePool.Get().(*bytes.Buffer)
	defer framePool.Put(scratch)
	scratch.Reset()
	scratch.WriteString("id: ")
	scratch.Write(strconv.AppendUint(scratch.AvailableBuffer(), id, 10))
	scratch.WriteString("\ndata: ")
	if err := json.NewEncoder(scratch).Encode(ev); err != nil {
		// LifecycleEvent is a flat struct of strings and ints; encoding
		// cannot fail. Keep the frame well-formed regardless.
		scratch.Reset()
		return nil
	}
	// json.Encoder already appended one \n; one more ends the SSE frame.
	scratch.WriteByte('\n')
	return append(make([]byte, 0, scratch.Len()), scratch.Bytes()...)
}

// eventLog is the server's single source of watch events: one
// deploy.lifecycle subscription on the platform's spine assigns every
// event a stream id, keeps a bounded replay ring, and fans out to
// per-connection subscribers. A reconnecting watcher presents its
// Last-Event-ID and receives the ring's events after that id before
// going live — replay and live delivery draw from the same id sequence
// under one lock, so there is no gap or duplication between them.
// Events older than the ring (watchReplay) are gone: a resume from that
// far back reports a gap to the consumer's filter-free view but still
// streams everything retained.
//
// The ring is a true circular buffer: a fixed backing array overwritten
// in place. The earlier re-slicing form (ring = ring[len-cap:]) kept
// the evicted prefix reachable through the backing array until append
// happened to reallocate, roughly doubling retained memory at steady
// state.
type eventLog struct {
	mu     sync.Mutex
	buf    []loggedEvent // fixed-size circular buffer
	head   int           // index of the oldest retained event
	size   int           // retained count (<= len(buf))
	nextID uint64
	subs   map[*logSub]struct{}
	closed bool
}

// logSub is one watch connection's subscription: an unbounded queue
// (a slow SSE write never stalls the fan-out, and so never the spine)
// drained a whole slice at a time via notify.
type logSub struct {
	log    *eventLog
	queue  []loggedEvent
	notify chan struct{}
	closed bool
}

// newEventLog starts the log over the platform's lifecycle topic. The
// work is done in the spine's handler (see append), on its delivery
// goroutine; one goroutine waits for the end — the server's ctx or the
// platform's Done, after which the spine has delivered everything — and
// then releases the subscription and closes every subscriber.
func newEventLog(ctx context.Context, p *core.Platform) (*eventLog, error) {
	l := &eventLog{buf: make([]loggedEvent, watchReplay), nextID: 1, subs: make(map[*logSub]struct{})}
	sub, err := p.Subscribe("sse-log", []events.Topic{events.TopicDeployLifecycle}, l.append)
	if err != nil {
		if errors.Is(err, events.ErrClosed) {
			return nil, &core.ClosedError{Op: "watch"}
		}
		return nil, err
	}
	go func() {
		select {
		case <-ctx.Done():
		case <-p.Done():
		}
		sub.Cancel()
		l.close()
	}()
	return l, nil
}

// append is the spine handler: it logs one delivered batch under one
// lock acquisition — every event gets its id and its frame, rendered
// once, every subscriber's queue grows by the whole batch, and each
// subscriber is woken once.
func (l *eventLog) append(batch []events.Event) {
	logged := make([]loggedEvent, 0, len(batch))
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range batch {
		ev, ok := e.Payload.(core.LifecycleEvent)
		if !ok {
			continue
		}
		le := loggedEvent{id: l.nextID, ev: api.FromLifecycleEvent(ev)}
		le.frame = renderFrame(le.id, le.ev)
		l.nextID++
		logged = append(logged, le)
		if l.size < len(l.buf) {
			l.buf[(l.head+l.size)%len(l.buf)] = le
			l.size++
		} else {
			// Full: overwrite the oldest slot in place. Nothing evicted stays
			// reachable — the slot's previous occupant is gone with this write.
			l.buf[l.head] = le
			l.head = (l.head + 1) % len(l.buf)
		}
	}
	for sub := range l.subs {
		sub.queue = append(sub.queue, logged...)
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
}

func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	for sub := range l.subs {
		sub.closed = true
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
	l.subs = make(map[*logSub]struct{})
}

// latest returns the most recently assigned id (0 before any event).
func (l *eventLog) latest() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextID - 1
}

// subscribe registers a live subscriber and returns the retained
// events after afterID. Snapshot and registration happen under one
// lock, so an event is either in the replay slice or queued live —
// never both, never neither. Ids restart at 1 with every daemon, so an
// afterID not assigned yet was minted by a previous lifetime: that
// client has seen nothing retained here, and everything is replayed.
func (l *eventLog) subscribe(afterID uint64) (replay []loggedEvent, sub *logSub) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if afterID >= l.nextID {
		afterID = 0
	}
	for i := 0; i < l.size; i++ {
		le := l.buf[(l.head+i)%len(l.buf)]
		if le.id > afterID {
			replay = append(replay, le)
		}
	}
	sub = &logSub{log: l, notify: make(chan struct{}, 1)}
	if l.closed {
		sub.closed = true
	} else {
		l.subs[sub] = struct{}{}
	}
	return replay, sub
}

// cancel removes the subscription.
func (s *logSub) cancel() {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	delete(s.log.subs, s)
}

// next blocks until events are queued and returns all of them; ok is
// false when the log closed (platform shutdown) or ctx ended and
// nothing is queued.
func (s *logSub) next(ctx context.Context) ([]loggedEvent, bool) {
	for {
		s.log.mu.Lock()
		queued, closed := s.queue, s.closed
		s.queue = nil
		s.log.mu.Unlock()
		if len(queued) > 0 {
			return queued, true
		}
		if closed {
			return nil, false
		}
		select {
		case <-s.notify:
		case <-ctx.Done():
			return nil, false
		}
	}
}
