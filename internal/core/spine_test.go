package core

// Flush/Close ordering guarantees expressed through the event spine:
// publish-after-close errors at the spine surface while RecordIncident
// degrades to a synchronous append (nothing lost), subscribers observe
// exactly the flushed state, and discarded platforms leave no goroutines
// behind.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"genio/internal/events"
)

func TestPublishEventAfterCloseErrors(t *testing.T) {
	p, err := New(LegacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PublishEvent(events.Event{Topic: events.TopicMetric, Key: "k"}); err != nil {
		t.Fatalf("publish before close: %v", err)
	}
	p.Close()
	if err := p.PublishEvent(events.Event{Topic: events.TopicMetric, Key: "k"}); err != events.ErrClosed {
		t.Fatalf("publish after close: err = %v, want events.ErrClosed", err)
	}
	if _, err := p.Subscribe("late", nil, func([]events.Event) {}); err != events.ErrClosed {
		t.Fatalf("subscribe after close: err = %v, want events.ErrClosed", err)
	}
	// The incident path must keep the old bus contract: late incidents
	// are applied synchronously, never lost, never an error.
	p.RecordIncident(Incident{Source: "late", Detail: "after close"})
	if got := p.IncidentCounts()["late"]; got != 1 {
		t.Fatalf("late incident count = %d, want 1", got)
	}
}

// TestSubscriberSeesExactlyFlushedIncidents: after Flush, an external
// subscriber has seen exactly the incidents the platform log holds — the
// read-your-writes contract extended to every subscriber.
func TestSubscriberSeesExactlyFlushedIncidents(t *testing.T) {
	p, err := New(LegacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var seen atomic.Int64
	if _, err := p.Subscribe("counter", []events.Topic{events.TopicIncident}, func(b []events.Event) {
		seen.Add(int64(len(b)))
	}); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 5; round++ {
		for i := 0; i < 40; i++ {
			p.RecordIncident(Incident{Source: "round", Workload: fmt.Sprintf("w%d", i%7), Detail: "x"})
		}
		p.Flush()
		want := int64(round * 40)
		if got := seen.Load(); got != want {
			t.Fatalf("round %d: subscriber saw %d incidents after flush, want %d", round, got, want)
		}
		if got := len(p.Incidents()); int64(got) != want {
			t.Fatalf("round %d: log holds %d incidents, want %d", round, got, want)
		}
	}
}

// TestIncidentsKeepRecordOrder: a single goroutine's incidents come back
// in the order it recorded them, even across different workload keys
// (different spine shards) — the Seq field restores the global order the
// single-writer bus used to give for free.
func TestIncidentsKeepRecordOrder(t *testing.T) {
	p, err := New(LegacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 300
	for i := 0; i < n; i++ {
		p.RecordIncident(Incident{Source: "order",
			Workload: fmt.Sprintf("w%d", i%11), Detail: fmt.Sprintf("%d", i)})
	}
	got := p.Incidents()
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	for i, inc := range got {
		if inc.Detail != fmt.Sprintf("%d", i) {
			t.Fatalf("index %d holds incident %q (cross-shard order lost)", i, inc.Detail)
		}
		if inc.Seq != uint64(i+1) {
			t.Fatalf("index %d has seq %d, want %d", i, inc.Seq, i+1)
		}
	}
}

// TestCloseLeavesNoGoroutines is the goleak-style regression: platform
// lifecycles must not leak spine drainers.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		p, err := New(LegacyConfig())
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 64; j++ {
			p.RecordIncident(Incident{Source: "leakcheck", Workload: fmt.Sprintf("w%d", j%5), Detail: "x"})
		}
		p.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked across platform lifecycles: baseline %d, now %d",
		baseline, runtime.NumGoroutine())
}

// TestPublishEventIncidentRoutesThroughLog: incident-topic publishes on
// the public API join the materialised log with proper Seq order, and
// foreign payloads on the incident topic are rejected instead of
// silently diverging the log from the subscribers' view.
func TestPublishEventIncidentRoutesThroughLog(t *testing.T) {
	p, err := New(LegacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.RecordIncident(Incident{Source: "a", Detail: "first"})
	if err := p.PublishEvent(events.Event{Topic: events.TopicIncident,
		Payload: Incident{Source: "b", Detail: "second"}}); err != nil {
		t.Fatalf("incident publish: %v", err)
	}
	p.RecordIncident(Incident{Source: "a", Detail: "third"})
	got := p.Incidents()
	if len(got) != 3 {
		t.Fatalf("log holds %d incidents, want 3", len(got))
	}
	for i, want := range []string{"first", "second", "third"} {
		if got[i].Detail != want || got[i].Seq != uint64(i+1) {
			t.Fatalf("index %d = {detail:%q seq:%d}, want {%q, %d}", i, got[i].Detail, got[i].Seq, want, i+1)
		}
	}
	if err := p.PublishEvent(events.Event{Topic: events.TopicIncident, Payload: "not an incident"}); err == nil {
		t.Fatal("foreign payload accepted on the incident topic")
	}
}

// TestMetricsAccounting: the per-topic ledger balances after Flush, and
// a burst the size of the spine's queue loses no incident.
func TestMetricsAccounting(t *testing.T) {
	p, err := New(LegacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 30; i++ {
		p.RecordIncident(Incident{Source: "acct", Workload: fmt.Sprintf("w%d", i%3), Detail: "x"})
	}
	p.Flush()
	st := p.Metrics()[events.TopicIncident]
	if st.Published != 30 || st.Delivered != 30 || st.Dropped != 0 {
		t.Fatalf("incident topic stats = %+v, want 30/30/0", st)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		p.RecordIncident(Incident{Source: "burst", Workload: "w", Detail: "x"})
	}
	if got := p.IncidentCounts()["burst"]; got != n {
		t.Fatalf("incidents = %d, want %d (the log lost incidents)", got, n)
	}
	if st := p.Metrics()[events.TopicIncident]; st.Published != 30+n || st.Delivered != 30+n || st.Dropped != 0 {
		t.Fatalf("incident topic stats after the burst = %+v, want %d/%d/0", st, 30+n, 30+n)
	}
}
