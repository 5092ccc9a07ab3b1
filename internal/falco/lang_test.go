package falco

import (
	"testing"

	"genio/internal/trace"
)

func evalCond(t *testing.T, src string, e trace.Event, hist []trace.Event) bool {
	t.Helper()
	c, err := ParseCondition(src)
	if err != nil {
		t.Fatalf("ParseCondition(%q): %v", src, err)
	}
	return c(e, hist)
}

func TestSimpleEquality(t *testing.T) {
	e := trace.Event{Type: trace.EventExec, Target: "/bin/bash", Process: "server"}
	if !evalCond(t, `evt.type = exec`, e, nil) {
		t.Fatal("equality failed")
	}
	if evalCond(t, `evt.type = connect`, e, nil) {
		t.Fatal("wrong type matched")
	}
	if !evalCond(t, `proc.name != runc`, e, nil) {
		t.Fatal("inequality failed")
	}
}

func TestStringOperators(t *testing.T) {
	e := trace.Event{Type: trace.EventFileOpen, Target: "/var/run/secrets/api-token"}
	cases := map[string]bool{
		`evt.target startswith /var/run/`: true,
		`evt.target startswith /etc/`:     false,
		`evt.target endswith api-token`:   true,
		`evt.target endswith .log`:        false,
		`evt.target contains secrets`:     true,
		`evt.target contains shadow`:      false,
	}
	for src, want := range cases {
		if got := evalCond(t, src, e, nil); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestInOperator(t *testing.T) {
	e := trace.Event{Type: trace.EventSyscall, Target: "mount"}
	if !evalCond(t, `evt.target in (mount, ptrace, init_module)`, e, nil) {
		t.Fatal("in failed")
	}
	e.Target = "read"
	if evalCond(t, `evt.target in (mount, ptrace, init_module)`, e, nil) {
		t.Fatal("in matched non-member")
	}
}

func TestBooleanComposition(t *testing.T) {
	e := trace.Event{Type: trace.EventConnect, Target: "203.0.113.7:4444", Tenant: "acme"}
	src := `evt.type = connect and not evt.target contains .internal and tenant = acme`
	if !evalCond(t, src, e, nil) {
		t.Fatal("composite condition failed")
	}
	e.Target = "db.internal:5432"
	if evalCond(t, src, e, nil) {
		t.Fatal("negation failed")
	}
}

func TestOrAndPrecedence(t *testing.T) {
	// a or b and c must parse as a or (b and c).
	e := trace.Event{Type: trace.EventExec, Target: "/bin/bash"}
	src := `evt.type = exec or evt.type = connect and evt.target = nothing`
	if !evalCond(t, src, e, nil) {
		t.Fatal("precedence: left arm of or should satisfy")
	}
	// With explicit parens forcing (a or b) and c -> false.
	src2 := `(evt.type = exec or evt.type = connect) and evt.target = nothing`
	if evalCond(t, src2, e, nil) {
		t.Fatal("parenthesised grouping ignored")
	}
}

func TestQuotedValues(t *testing.T) {
	e := trace.Event{Type: trace.EventFileWrite, Target: "/my dir/file"}
	if !evalCond(t, `evt.target startswith "/my dir/"`, e, nil) {
		t.Fatal("quoted value with space failed")
	}
}

func TestFirstExecPredicate(t *testing.T) {
	entry := trace.Event{Type: trace.EventExec, Target: "/bin/sh"}
	if !evalCond(t, `evt.first_exec`, entry, nil) {
		t.Fatal("first exec not recognized")
	}
	hist := []trace.Event{{Type: trace.EventExec, Target: "/app/server"}}
	if evalCond(t, `evt.first_exec`, entry, hist) {
		t.Fatal("second exec treated as first")
	}
	// Non-exec event is never first_exec.
	open := trace.Event{Type: trace.EventFileOpen, Target: "/x"}
	if evalCond(t, `evt.first_exec`, open, nil) {
		t.Fatal("non-exec matched first_exec")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		``,
		`evt.type`,
		`evt.type =`,
		`evt.type ~ exec`,
		`bogus.field = x`,
		`evt.type = exec and`,
		`(evt.type = exec`,
		`evt.type = exec extra`,
		`evt.target in (a, b`,
		`evt.type in ()`,
		`evt.type = exec or or evt.type = connect`,
	} {
		if _, err := ParseCondition(src); err == nil {
			t.Errorf("ParseCondition(%q) succeeded, want error", src)
		}
	}
}

func TestParseRule(t *testing.T) {
	r, err := ParseRule("test-rule", PriorityWarning, `evt.type = exec`, "/usr/bin/")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "test-rule" || r.Priority != PriorityWarning || len(r.Exceptions) != 1 {
		t.Fatalf("rule = %+v", r)
	}
	if _, err := ParseRule("bad", PriorityNotice, `nope`); err == nil {
		t.Fatal("bad condition accepted")
	}
}

// TestTextRulesEquivalentToDefault runs both rule sets over the fixture
// traces and compares the alert profiles.
func TestTextRulesEquivalentToDefault(t *testing.T) {
	textRules, err := textRules()
	if err != nil {
		t.Fatalf("textRules: %v", err)
	}
	traces := [][]trace.Event{
		trace.BenignWebTrace("w1", "t", 5),
		trace.BenignBatchTrace("w2", "t", 5),
		trace.ContainerEscapeTrace("w3", "t"),
		trace.ReverseShellTrace("w4", "t"),
		trace.CryptominerTrace("w5", "t"),
		trace.DataExfiltrationTrace("w6", "t"),
	}
	profile := func(rules []Rule) map[string]int {
		e := NewEngine(rules)
		out := map[string]int{}
		for _, tr := range traces {
			for _, a := range e.ConsumeAll(tr) {
				out[a.Rule]++
			}
		}
		return out
	}
	native := profile(DefaultRules())
	text := profile(textRules)
	if len(native) != len(text) {
		t.Fatalf("rule fire sets differ: native=%v text=%v", native, text)
	}
	for rule, n := range native {
		if text[rule] != n {
			t.Errorf("rule %s: native fired %d, text fired %d", rule, n, text[rule])
		}
	}
}

func TestEngineWithTextRules(t *testing.T) {
	rules, err := textRules()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	alerts := e.ConsumeAll(trace.ReverseShellTrace("web", "acme"))
	found := map[string]bool{}
	for _, a := range alerts {
		found[a.Rule] = true
	}
	if !found["shell-in-container"] || !found["sensitive-file-read"] || !found["unexpected-egress"] {
		t.Fatalf("text rules missed detections: %v", found)
	}
}

// textRules is the stock detection set written in the condition
// language, the way a deployed Falco rule file states it.
func textRules() ([]Rule, error) {
	specs := []struct {
		name     string
		priority Priority
		cond     string
	}{
		{"shell-in-container", PriorityCritical,
			`evt.type = exec and not evt.first_exec and (evt.target endswith /bash or evt.target endswith /sh or evt.target endswith /zsh)`},
		{"sensitive-file-read", PriorityCritical,
			`evt.type = file-open and (evt.target startswith /etc/shadow or evt.target startswith /var/run/secrets/ or evt.target startswith /host/)`},
		{"unexpected-egress", PriorityWarning,
			`evt.type = connect and not evt.target contains .internal`},
		{"privileged-syscall", PriorityCritical,
			`evt.type = syscall and evt.target in (mount, ptrace, init_module)`},
		{"write-outside-app", PriorityNotice,
			`evt.type = file-write and not (evt.target startswith /app/ or evt.target startswith /out/ or evt.target startswith /tmp/)`},
	}
	rules := make([]Rule, 0, len(specs))
	for _, s := range specs {
		r, err := ParseRule(s.name, s.priority, s.cond)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}
