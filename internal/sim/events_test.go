package sim

import (
	"bytes"
	"strings"
	"testing"
)

// TestEventStormBalancesLedger: the campaign drives every topic and the
// no-silent-event-drops invariant holds — zero drops,
// published == delivered after every step.
func TestEventStormBalancesLedger(t *testing.T) {
	rep, js := runJSON(t, "event-storm", 7)
	if !rep.Passed {
		t.Fatalf("event-storm violated invariants:\n%s", js)
	}
	for _, topic := range []string{"incident", "falco.alert", "audit", "metric"} {
		if rep.Final.Events[topic] == 0 {
			t.Fatalf("topic %s carried no events:\n%s", topic, js)
		}
	}
	found := false
	for _, inv := range rep.Invariants {
		if inv == "no-silent-event-drops" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no-silent-event-drops not in the default set: %v", rep.Invariants)
	}
}

// TestFirehoseStreamsEvents: the engine firehose emits one JSON line per
// spine event, covering multiple topics, without perturbing the report.
func TestFirehoseStreamsEvents(t *testing.T) {
	sc, err := NewCampaign("event-storm", 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(nil)
	var hose bytes.Buffer
	e.SetFirehose(&hose)
	rep, err := e.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		js, _ := rep.JSON()
		t.Fatalf("run failed:\n%s", js)
	}
	lines := strings.Split(strings.TrimSpace(hose.String()), "\n")
	var total uint64
	for _, n := range rep.Final.Events {
		total += n
	}
	if uint64(len(lines)) != total {
		t.Fatalf("firehose has %d lines, report counts %d published events", len(lines), total)
	}
	topics := map[string]bool{}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"topic":"`) {
			t.Fatalf("malformed firehose line: %s", l)
		}
		rest := l[len(`{"topic":"`):]
		topics[rest[:strings.Index(rest, `"`)]] = true
	}
	for _, want := range []string{"incident", "falco.alert", "audit", "metric"} {
		if !topics[want] {
			t.Fatalf("firehose missing topic %s (saw %v)", want, topics)
		}
	}
	// The report itself must be byte-identical with and without firehose.
	rep2, js2 := runJSON(t, "event-storm", 3)
	if !rep2.Passed {
		t.Fatalf("silent rerun failed:\n%s", js2)
	}
	js1, _ := rep.JSON()
	if !bytes.Equal(js1, js2) {
		t.Fatalf("firehose perturbed the report:\n--- with\n%s\n--- without\n%s", js1, js2)
	}
}
