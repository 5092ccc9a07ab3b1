package core

// The incident ledger is platform state: reads never wait on a spine
// subscriber, every read is a contiguous Seq prefix, and a crash loses
// nothing a read already returned. Falco alerts reach observers only
// through the spine, ahead of the incidents they raise.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"genio/internal/events"
	falcoengine "genio/internal/falco"
	"genio/internal/trace"
)

// TestIncidentReadsNeverWaitOnSubscribers: a stalled incident-topic
// subscriber must not hold up Incidents or IncidentCounts.
func TestIncidentReadsNeverWaitOnSubscribers(t *testing.T) {
	p, err := New(LegacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	release := make(chan struct{})
	defer close(release) // before Close, which drains the stalled handler
	if _, err := p.Subscribe("stalled", []events.Topic{events.TopicIncident}, func([]events.Event) {
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	p.RecordIncident(Incident{Source: "probe", Detail: "x"})

	read := make(chan string, 1)
	go func() {
		counts := p.IncidentCounts()
		incs := p.Incidents()
		read <- fmt.Sprintf("counts=%d incidents=%d", counts["probe"], len(incs))
	}()
	select {
	case got := <-read:
		if got != "counts=1 incidents=1" {
			t.Fatalf("read %s, want counts=1 incidents=1", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("incident read blocked on a stalled subscriber")
	}
}

// checkContiguous fails unless incs is exactly Seq 1..len(incs).
func checkContiguous(t *testing.T, incs []Incident) {
	t.Helper()
	for i, inc := range incs {
		if inc.Seq != uint64(i+1) {
			t.Fatalf("read of %d incidents holds seq %d at index %d, want %d", len(incs), inc.Seq, i, i+1)
		}
	}
}

// recordConcurrently runs 8 goroutines × 300 RecordIncident while a
// reader loop checks that every Incidents read is exactly Seq 1..k.
func recordConcurrently(t *testing.T, p *Platform) {
	t.Helper()
	const writers, each = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p.RecordIncident(Incident{Source: "stress", Workload: fmt.Sprintf("w%d", g), Detail: "x"})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		checkContiguous(t, p.Incidents())
	}
	final := p.Incidents()
	checkContiguous(t, final)
	if len(final) != writers*each {
		t.Fatalf("ledger holds %d incidents, want %d", len(final), writers*each)
	}
}

// TestIncidentReadsAreContiguous: a concurrent read never returns Seq
// n+1 without Seq n.
func TestIncidentReadsAreContiguous(t *testing.T) {
	p, err := New(LegacyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	recordConcurrently(t, p)
}

// TestIncidentReadsAreContiguousAcrossCrash is the durable variant:
// snapshots taken every few records race the recorders, and after a
// crash the reopened ledger equals the last pre-crash read.
func TestIncidentReadsAreContiguousAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	p := walPlatform(t, dir, WithSnapshotEvery(4))
	recordConcurrently(t, p)
	before := p.Incidents()
	p.Crash()

	p2 := walPlatform(t, dir)
	defer p2.Close()
	if after := p2.Incidents(); !reflect.DeepEqual(after, before) {
		t.Fatalf("recovered %d incidents, want the %d read before the crash", len(after), len(before))
	}
}

// TestObserveRuntimePublishesAlertsOnSpine: each alert ObserveRuntime
// raises is published once on falco.alert, keyed by its workload, ahead
// of the falco incidents, and raises exactly one incident.
func TestObserveRuntimePublishesAlertsOnSpine(t *testing.T) {
	cfg := LegacyConfig()
	cfg.RuntimeMonitoring = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var (
		mu  sync.Mutex
		got []events.Event
	)
	if _, err := p.Subscribe("alerts", []events.Topic{events.TopicFalcoAlert, events.TopicIncident}, func(b []events.Event) {
		mu.Lock()
		got = append(got, b...)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	p.ObserveRuntime(trace.ReverseShellTrace("web", "acme"))
	p.Flush()
	mu.Lock()
	defer mu.Unlock()

	var alerts []falcoengine.Alert
	incidents := 0
	for _, ev := range got {
		switch ev.Topic {
		case events.TopicFalcoAlert:
			if incidents > 0 {
				t.Fatal("falco alert published after the first falco incident")
			}
			a := ev.Payload.(falcoengine.Alert)
			if ev.Key != "web" || a.Event.Workload != "web" {
				t.Fatalf("alert keyed %q for workload %q, want web", ev.Key, a.Event.Workload)
			}
			alerts = append(alerts, a)
		case events.TopicIncident:
			if ev.Payload.(Incident).Source == "falco" {
				incidents++
			}
		}
	}
	if len(alerts) == 0 {
		t.Fatal("no alerts published")
	}
	if incidents != len(alerts) || p.IncidentCounts()["falco"] != len(alerts) {
		t.Fatalf("%d alerts raised %d published / %d recorded falco incidents, want one each",
			len(alerts), incidents, p.IncidentCounts()["falco"])
	}
}
