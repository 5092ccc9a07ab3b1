package sandbox

import (
	"testing"

	"genio/internal/trace"
)

func TestBenignTrafficUnblocked(t *testing.T) {
	e := NewEnforcer()
	vs := e.Process(trace.BenignWebTrace("web", "acme", 10))
	if len(Blocked(vs)) != 0 {
		t.Fatalf("benign traffic blocked: %+v", Blocked(vs))
	}
	blocked, _ := e.Counts("web")
	if blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
}

func TestContainerEscapeBlockedAtCapability(t *testing.T) {
	e := NewEnforcer()
	events := trace.ContainerEscapeTrace("miner", "shady")
	vs := e.Process(events)
	b := Blocked(vs)
	if len(b) != 1 {
		t.Fatalf("blocked = %+v", b)
	}
	if b[0].Event.Type != trace.EventCapability || b[0].Event.Target != "CAP_SYS_ADMIN" {
		t.Fatalf("blocked event = %+v", b[0].Event)
	}
	// Enforcement terminates the trace: later host-fs writes never happen.
	if len(vs) >= len(events) {
		t.Fatal("trace continued past blocking decision")
	}
}

func TestReverseShellBlockedAtExec(t *testing.T) {
	e := NewEnforcer()
	vs := e.Process(trace.ReverseShellTrace("web", "acme"))
	b := Blocked(vs)
	if len(b) != 1 || b[0].Event.Target != "/bin/bash" {
		t.Fatalf("blocked = %+v", b)
	}
}

// TestBaselineConfinesWorkloadWithoutPolicy: no SetPolicy call is
// needed to confine a workload; the enforcer applies the baseline to
// names it has never been told about.
func TestBaselineConfinesWorkloadWithoutPolicy(t *testing.T) {
	e := NewEnforcer()
	b := Blocked(e.Process(trace.ContainerEscapeTrace("never-placed", "shady")))
	if len(b) != 1 || b[0].Event.Target != "CAP_SYS_ADMIN" {
		t.Fatalf("blocked = %+v", b)
	}
	if blocked, _ := e.Counts("never-placed"); blocked != 1 {
		t.Fatalf("blocked count = %d", blocked)
	}
}

// TestPolicyOverrideReplacesBaseline: an override replaces the baseline
// for its workload only; the zero Policy lets the escape run to
// completion (the pre-M17 posture).
func TestPolicyOverrideReplacesBaseline(t *testing.T) {
	e := NewEnforcer()
	e.SetPolicy("miner", Policy{})
	events := trace.ContainerEscapeTrace("miner", "shady")
	vs := e.Process(events)
	if len(Blocked(vs)) != 0 {
		t.Fatalf("overridden workload blocked: %+v", Blocked(vs))
	}
	if len(vs) != len(events) {
		t.Fatal("trace truncated under an allow-all override")
	}
	if len(Blocked(e.Process(trace.ContainerEscapeTrace("web", "acme")))) != 1 {
		t.Fatal("an override for miner lifted the baseline from web")
	}
}

func TestAuditModeRecordsWithoutBlocking(t *testing.T) {
	e := NewEnforcer()
	// Batch workload writes outside /var/log and /out -> audit.
	events := trace.NewBuilder("batch", "acme").
		Add(trace.EventFileWrite, "job", "/tmp/scratch").
		Events()
	vs := e.Process(events)
	if len(vs) != 1 || vs[0].Action != ActionAudit {
		t.Fatalf("verdicts = %+v", vs)
	}
	_, audited := e.Counts("batch")
	if audited != 1 {
		t.Fatalf("audited = %d", audited)
	}
}

func TestFirstMatchWins(t *testing.T) {
	p := Policy{
		Name: "ordered",
		Rules: []PolicyRule{
			{Types: []trace.EventType{trace.EventFileOpen}, TargetPrefix: "/app/secrets/public", Action: ActionAllow},
			{Types: []trace.EventType{trace.EventFileOpen}, TargetPrefix: "/app/secrets", Action: ActionBlock},
		},
		DefaultAction: ActionAllow,
	}
	ev := trace.Event{Type: trace.EventFileOpen, Target: "/app/secrets/public/cert.pem"}
	if p.Decide(ev) != ActionAllow {
		t.Fatal("more specific earlier rule did not win")
	}
	ev.Target = "/app/secrets/private.key"
	if p.Decide(ev) != ActionBlock {
		t.Fatal("later rule did not apply")
	}
}

func TestDefaultActionFallback(t *testing.T) {
	p := Policy{Name: "empty"}
	if p.Decide(trace.Event{Type: trace.EventExec, Target: "/x"}) != ActionAllow {
		t.Fatal("zero-value default should allow")
	}
	p.DefaultAction = ActionBlock
	if p.Decide(trace.Event{Type: trace.EventExec, Target: "/x"}) != ActionBlock {
		t.Fatal("explicit default ignored")
	}
}

func TestTypeFilterInRules(t *testing.T) {
	p := Policy{Rules: []PolicyRule{
		{Types: []trace.EventType{trace.EventConnect}, TargetPrefix: "203.0.113.", Action: ActionBlock},
	}}
	// Same target string on a different event type passes.
	if p.Decide(trace.Event{Type: trace.EventFileOpen, Target: "203.0.113.7:4444"}) != ActionAllow {
		t.Fatal("type filter not applied")
	}
	if p.Decide(trace.Event{Type: trace.EventConnect, Target: "203.0.113.7:4444"}) != ActionBlock {
		t.Fatal("matching connect not blocked")
	}
}

func TestActionString(t *testing.T) {
	if ActionBlock.String() != "block" || Action(9).String() != "action(9)" {
		t.Fatal("Action.String mismatch")
	}
}

// BenchmarkSandboxEnforce: per-operation cost behind Lesson 8 (runtime).
func BenchmarkSandboxEnforce(b *testing.B) {
	e := NewEnforcer()
	events := trace.BenignWebTrace("bench", "acme", 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(events)
	}
	b.ReportMetric(float64(len(events)), "events/op")
}
