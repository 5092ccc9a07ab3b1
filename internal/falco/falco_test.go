package falco

import (
	"testing"

	"genio/internal/trace"
)

func TestReverseShellDetected(t *testing.T) {
	e := NewEngine(DefaultRules())
	alerts := e.ConsumeAll(trace.ReverseShellTrace("web", "acme"))
	rules := map[string]bool{}
	for _, a := range alerts {
		rules[a.Rule] = true
	}
	if !rules["shell-in-container"] {
		t.Errorf("shell exec not detected; alerts = %+v", alerts)
	}
	if !rules["sensitive-file-read"] {
		t.Errorf("/etc/shadow read not detected")
	}
	if !rules["unexpected-egress"] {
		t.Errorf("C2 egress not detected")
	}
}

func TestContainerEscapeDetected(t *testing.T) {
	e := NewEngine(DefaultRules())
	alerts := e.ConsumeAll(trace.ContainerEscapeTrace("miner", "shady"))
	rules := map[string]bool{}
	for _, a := range alerts {
		rules[a.Rule] = true
	}
	if !rules["privileged-syscall"] {
		t.Errorf("mount syscall not detected")
	}
	if !rules["sensitive-file-read"] {
		t.Errorf("/host access not detected")
	}
}

func TestDetectionDoesNotBlock(t *testing.T) {
	// Falco observes; the full malicious trace is consumed to the end.
	e := NewEngine(DefaultRules())
	events := trace.ContainerEscapeTrace("miner", "shady")
	var consumed int
	for _, ev := range events {
		e.ConsumeAll([]trace.Event{ev})
		consumed++
	}
	if consumed != len(events) {
		t.Fatal("detection interfered with execution")
	}
}

func TestEntrypointExecNotFlagged(t *testing.T) {
	e := NewEngine(DefaultRules())
	// First exec in a workload is the entrypoint, even if it is a shell.
	alerts := e.ConsumeAll(trace.NewBuilder("sh-app", "t").
		Add(trace.EventExec, "runc", "/bin/sh").
		Events())
	for _, a := range alerts {
		if a.Rule == "shell-in-container" {
			t.Fatalf("entrypoint shell flagged: %+v", a)
		}
	}
}

func TestUntunedFalsePositivesOnBenignTraffic(t *testing.T) {
	// Lesson 8: out of the box, benign DB egress trips unexpected-egress
	// until the destination uses internal naming... our benign web trace
	// talks to db.internal, so craft one talking to an external SaaS.
	e := NewEngine(DefaultRules())
	benign := trace.NewBuilder("web", "acme").
		Add(trace.EventExec, "runc", "/app/server").
		Add(trace.EventConnect, "server", "api.stripe.example:443"). // legitimate SaaS
		Add(trace.EventFileWrite, "server", "/var/log/app/access.log").
		Events()
	alerts := e.ConsumeAll(benign)
	var egressFP, writeFP bool
	for _, a := range alerts {
		switch a.Rule {
		case "unexpected-egress":
			egressFP = true
		case "write-outside-app":
			writeFP = true
		}
	}
	if !egressFP || !writeFP {
		t.Fatalf("expected untuned FPs, alerts = %+v", alerts)
	}
}

func TestTuningSuppressesFalsePositivesKeepsTruePositives(t *testing.T) {
	e := NewEngine(DefaultRules())
	if err := e.SetExceptions("unexpected-egress", []string{"api.stripe.example"}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetExceptions("write-outside-app", []string{"/var/log/"}); err != nil {
		t.Fatal(err)
	}
	benign := trace.NewBuilder("web", "acme").
		Add(trace.EventExec, "runc", "/app/server").
		Add(trace.EventConnect, "server", "api.stripe.example:443").
		Add(trace.EventFileWrite, "server", "/var/log/app/access.log").
		Events()
	if alerts := e.ConsumeAll(benign); len(alerts) != 0 {
		t.Fatalf("tuned engine still alerts on benign traffic: %+v", alerts)
	}
	// The true positive (C2 egress) still fires.
	alerts := e.ConsumeAll(trace.ReverseShellTrace("web2", "acme"))
	var c2 bool
	for _, a := range alerts {
		if a.Rule == "unexpected-egress" {
			c2 = true
		}
	}
	if !c2 {
		t.Fatal("tuning suppressed the true positive")
	}
}

func TestSetExceptionsUnknownRule(t *testing.T) {
	e := NewEngine(DefaultRules())
	if err := e.SetExceptions("ghost-rule", nil); err == nil {
		t.Fatal("SetExceptions on unknown rule succeeded")
	}
}

func TestHistoryBounded(t *testing.T) {
	e := NewEngine(DefaultRules())
	b := trace.NewBuilder("w", "t")
	for i := 0; i < 1000; i++ {
		b.Add(trace.EventFileWrite, "app", "/app/data")
	}
	e.ConsumeAll(b.Events())
	e.mu.Lock()
	n := len(e.history["w"])
	e.mu.Unlock()
	if n > 256 {
		t.Fatalf("history grew to %d", n)
	}
}

func TestCryptominerEgressDetected(t *testing.T) {
	e := NewEngine(DefaultRules())
	alerts := e.ConsumeAll(trace.CryptominerTrace("miner", "shady"))
	count := 0
	for _, a := range alerts {
		if a.Rule == "unexpected-egress" {
			count++
		}
	}
	if count != 5 {
		t.Fatalf("pool connections flagged %d times, want 5", count)
	}
}

func TestPriorityString(t *testing.T) {
	if PriorityCritical.String() != "critical" || Priority(9).String() != "priority(9)" {
		t.Fatal("Priority.String mismatch")
	}
}

// BenchmarkFalcoPipeline: per-operation cost behind Lesson 8 (runtime).
func BenchmarkFalcoPipeline(b *testing.B) {
	e := NewEngine(DefaultRules())
	events := trace.BenignWebTrace("bench", "acme", 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ConsumeAll(events)
	}
	b.ReportMetric(float64(len(events)), "events/op")
}
