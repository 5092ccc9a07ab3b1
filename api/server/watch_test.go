package server

// Handler-level tests of the batched watch path: handleWatch writes
// every matching frame of what is already queued and flushes once, for
// replay and live alike. The handler is driven in-process against a
// ResponseWriter that records what each Flush pushed out.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"genio/api"
	"genio/internal/core"
	"genio/internal/events"
)

// burstRecorder is a streaming ResponseWriter: Write accumulates, Flush
// hands the accumulated bytes to bursts (the header flush arrives as an
// empty burst). A token in hold makes the next Flush park until release
// is signalled — how a test keeps the handler busy while events queue.
type burstRecorder struct {
	hdr     http.Header
	pending bytes.Buffer
	bursts  chan string
	hold    chan struct{}
	release chan struct{}
}

func newBurstRecorder() *burstRecorder {
	return &burstRecorder{
		hdr: http.Header{}, bursts: make(chan string, 64),
		hold: make(chan struct{}, 1), release: make(chan struct{}),
	}
}

func (b *burstRecorder) Header() http.Header         { return b.hdr }
func (b *burstRecorder) WriteHeader(int)             {}
func (b *burstRecorder) Write(p []byte) (int, error) { return b.pending.Write(p) }
func (b *burstRecorder) Flush() {
	held := false
	select {
	case <-b.hold:
		held = true
	default:
	}
	b.bursts <- b.pending.String()
	b.pending.Reset()
	if held {
		<-b.release
	}
}

// nextBurst returns what the next Flush carried.
func (b *burstRecorder) nextBurst(t *testing.T) string {
	t.Helper()
	select {
	case s := <-b.bursts:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("handler never flushed")
		return ""
	}
}

// startWatch runs handleWatch against rec until the test ends and
// returns once the handler has subscribed (its header flush is out).
func startWatch(t *testing.T, srv *Server, rec *burstRecorder, query, lastEventID string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v2/watch?"+query, nil).WithContext(ctx)
	req.Header.Set(api.HeaderSubject, "operator")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(rec, req)
	}()
	t.Cleanup(func() { cancel(); <-done })
	if got := rec.nextBurst(t); got != "" {
		t.Fatalf("header flush carried a body: %q", got)
	}
}

// running builds one spine batch: a running event per workload name.
func running(tenant string, workloads ...string) []events.Event {
	evs := make([]core.LifecycleEvent, len(workloads))
	for i, w := range workloads {
		evs[i] = core.LifecycleEvent{Workload: w, Tenant: tenant, State: core.StateRunning}
	}
	return lifecycle(evs...)
}

// wantFrames asserts burst holds exactly the frames with the given ids,
// in that order, each well-formed.
func wantFrames(t *testing.T, burst string, ids ...uint64) {
	t.Helper()
	frames := strings.SplitAfter(burst, "\n\n")
	if frames[len(frames)-1] != "" {
		t.Fatalf("burst ends mid-frame: %q", burst)
	}
	frames = frames[:len(frames)-1]
	if len(frames) != len(ids) {
		t.Fatalf("burst carries %d frames, want %d: %q", len(frames), len(ids), burst)
	}
	for i, f := range frames {
		if want := fmt.Sprintf("id: %d\ndata: {", ids[i]); !strings.HasPrefix(f, want) || strings.Count(f, "\n") != 3 {
			t.Fatalf("frame %d = %q, want prefix %q and one data line", i, f, want)
		}
	}
}

func watchServer(t *testing.T) (*Server, *eventLog) {
	t.Helper()
	srv := New(testPlatform(t), Options{AllowAnonymous: true})
	t.Cleanup(srv.Close)
	log, err := srv.eventLog()
	if err != nil {
		t.Fatalf("eventLog: %v", err)
	}
	return srv, log
}

// TestWatchFlushesOncePerQueuedSlice: whatever queued while the handler
// was busy — one platform batch or several appends — leaves in one
// Flush, filtered, in id order; a slice the selector rejects entirely
// costs no write and no flush.
func TestWatchFlushesOncePerQueuedSlice(t *testing.T) {
	srv, log := watchServer(t)
	rec := newBurstRecorder()
	startWatch(t, srv, rec, "tenant=acme", "")

	// One platform batch, other tenants' events interleaved: ids 1..6,
	// acme holds 1, 2, 4, 6.
	rec.hold <- struct{}{} // park the handler inside this burst's Flush
	log.append(slices.Concat(running("acme", "a0", "a1"), running("globex", "g0"),
		running("acme", "a2"), running("globex", "g1"), running("acme", "a3")))
	wantFrames(t, rec.nextBurst(t), 1, 2, 4, 6)

	// While it is parked: a slice matching nothing, then five separate
	// appends. Released, the handler must send all five in ONE flush.
	log.append(running("globex", "x0", "x1", "x2")) // ids 7..9
	for i := 0; i < 5; i++ {
		log.append(running("acme", fmt.Sprintf("b%d", i))) // ids 10..14
	}
	rec.release <- struct{}{}
	wantFrames(t, rec.nextBurst(t), 10, 11, 12, 13, 14)

	// A non-matching slice on its own wakes the handler but reaches the
	// wire as nothing: the next flush is the sentinel's alone.
	log.append(running("globex", "y0", "y1")) // ids 15, 16
	log.append(running("acme", "sentinel"))
	wantFrames(t, rec.nextBurst(t), 17)
	select {
	case extra := <-rec.bursts:
		t.Fatalf("unexpected extra flush: %q", extra)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestWatchResumeIsOneBurstThenLive: the replay of a resumed stream
// goes out as one write burst, live delivery follows with the next id.
// A Last-Event-ID this log never assigned — minted by a previous daemon
// lifetime, whose ids also started at 1 — replays everything retained
// instead of silently hiding it.
func TestWatchResumeIsOneBurstThenLive(t *testing.T) {
	for _, tc := range []struct {
		name, lastEventID string
		replay            []uint64
	}{
		{"resume", "2", []uint64{3, 4, 5}},
		{"caught-up", "5", nil},
		{"previous-lifetime", "16384", []uint64{1, 2, 3, 4, 5}},
		{"next-unassigned", "6", []uint64{1, 2, 3, 4, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, log := watchServer(t)
			for i := 0; i < 5; i++ {
				log.append(running("acme", fmt.Sprintf("old%d", i)))
			}
			rec := newBurstRecorder()
			startWatch(t, srv, rec, "", tc.lastEventID)
			if len(tc.replay) > 0 {
				wantFrames(t, rec.nextBurst(t), tc.replay...)
			}
			log.append(running("acme", "live"))
			wantFrames(t, rec.nextBurst(t), 6)
		})
	}
}
