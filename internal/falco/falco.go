// Package falco implements runtime threat detection for GENIO (M18, the
// Falco role): a rule engine evaluating conditions over the syscall-level
// event stream, producing prioritized alerts without blocking execution —
// detection, not enforcement, exactly as the paper distinguishes it from
// sandboxing.
//
// The rules are Go condition functions with optional stateful context
// (e.g. "shell spawned by a non-shell parent", "egress to a
// non-allowlisted address"): DefaultRules is the one stock set, and
// SetExceptions is its tuning knob. The Lesson-8 experiment measures
// false-positive rates before and after tuning on identical traffic.
package falco

import (
	"fmt"
	"strings"
	"sync"

	"genio/internal/trace"
)

// Priority ranks alerts, following Falco's levels.
type Priority int

// Priorities.
const (
	PriorityNotice Priority = iota + 1
	PriorityWarning
	PriorityCritical
)

var priorityNames = map[Priority]string{
	PriorityNotice:   "notice",
	PriorityWarning:  "warning",
	PriorityCritical: "critical",
}

// String names the priority.
func (p Priority) String() string {
	if n, ok := priorityNames[p]; ok {
		return n
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// Alert is one detection.
type Alert struct {
	Rule     string      `json:"rule"`
	Priority Priority    `json:"priority"`
	Event    trace.Event `json:"event"`
	Output   string      `json:"output"`
	// AtMs is the engine-clock time of the detection (zero unless a time
	// source is installed with SetTimeSource).
	AtMs int64 `json:"atMs,omitempty"`
}

// Condition evaluates one event in the context of the events seen so far
// for the same workload (state enables parent-process style conditions).
type Condition func(e trace.Event, history []trace.Event) bool

// Rule is one detection rule.
type Rule struct {
	Name     string
	Priority Priority
	Cond     Condition
	// Exceptions suppress matches whose event target has one of these
	// prefixes — the tuning mechanism of Lesson 8.
	Exceptions []string
}

func (r Rule) excepted(e trace.Event) bool {
	for _, ex := range r.Exceptions {
		if strings.HasPrefix(e.Target, ex) {
			return true
		}
	}
	return false
}

// Engine evaluates rules over event streams. Safe for concurrent use.
type Engine struct {
	mu      sync.Mutex
	rules   []Rule
	history map[string][]trace.Event // per-workload context window
	// historyLimit bounds per-workload context retention.
	historyLimit int
	// now, when set, timestamps alerts (AtMs). Simulations inject a
	// virtual clock; nil leaves stamps zero.
	now func() int64
}

// NewEngine creates an engine with the given rules.
func NewEngine(rules []Rule) *Engine {
	return &Engine{
		rules:        append([]Rule(nil), rules...),
		history:      make(map[string][]trace.Event),
		historyLimit: 256,
	}
}

// SetTimeSource installs a millisecond time source used to stamp alerts.
func (e *Engine) SetTimeSource(now func() int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.now = now
}

// SetExceptions replaces the exceptions of a named rule (tuning).
func (e *Engine) SetExceptions(ruleName string, exceptions []string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.rules {
		if e.rules[i].Name == ruleName {
			e.rules[i].Exceptions = append([]string(nil), exceptions...)
			return nil
		}
	}
	return fmt.Errorf("falco: unknown rule %q", ruleName)
}

// consumeLocked feeds one event through every rule, returning the
// alerts raised; callers hold e.mu.
func (e *Engine) consumeLocked(ev trace.Event) []Alert {
	hist := e.history[ev.Workload]
	var atMs int64
	if e.now != nil {
		atMs = e.now()
	}
	var raised []Alert
	for _, r := range e.rules {
		if r.Cond(ev, hist) && !r.excepted(ev) {
			a := Alert{
				Rule: r.Name, Priority: r.Priority, Event: ev, AtMs: atMs,
				Output: fmt.Sprintf("%s: workload=%s process=%s %s=%s",
					r.Name, ev.Workload, ev.Process, ev.Type, ev.Target),
			}
			raised = append(raised, a)
		}
	}
	hist = append(hist, ev)
	if len(hist) > e.historyLimit {
		hist = hist[len(hist)-e.historyLimit:]
	}
	e.history[ev.Workload] = hist
	return raised
}

// ConsumeAll feeds a whole trace, returning all alerts raised. The engine
// lock is taken once for the batch rather than per event, so full traces
// are cheap on the runtime hot path.
func (e *Engine) ConsumeAll(events []trace.Event) []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Alert
	for _, ev := range events {
		out = append(out, e.consumeLocked(ev)...)
	}
	return out
}

// DefaultRules returns the stock detection set covering the behaviours the
// paper lists: unexpected shell execution, unauthorized file access, and
// unusual network connections, plus escape-adjacent syscall use.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name:     "shell-in-container",
			Priority: PriorityCritical,
			Cond: func(e trace.Event, hist []trace.Event) bool {
				if e.Type != trace.EventExec {
					return false
				}
				base := e.Target[strings.LastIndex(e.Target, "/")+1:]
				if base != "bash" && base != "sh" && base != "zsh" {
					return false
				}
				// Only shells spawned after startup (exec by an already-
				// running process) are suspicious; the initial runc exec
				// is the container entrypoint.
				return len(hist) > 0
			},
		},
		{
			Name:     "sensitive-file-read",
			Priority: PriorityCritical,
			Cond: func(e trace.Event, _ []trace.Event) bool {
				if e.Type != trace.EventFileOpen {
					return false
				}
				for _, p := range []string{"/etc/shadow", "/var/run/secrets/", "/host/"} {
					if strings.HasPrefix(e.Target, p) {
						return true
					}
				}
				return false
			},
		},
		{
			Name:     "unexpected-egress",
			Priority: PriorityWarning,
			Cond: func(e trace.Event, _ []trace.Event) bool {
				if e.Type != trace.EventConnect {
					return false
				}
				// Internal destinations are expected; anything else is
				// flagged until tuned with an allowlist.
				return !strings.HasSuffix(hostOf(e.Target), ".internal")
			},
		},
		{
			Name:     "privileged-syscall",
			Priority: PriorityCritical,
			Cond: func(e trace.Event, _ []trace.Event) bool {
				if e.Type != trace.EventSyscall {
					return false
				}
				return e.Target == "mount" || e.Target == "ptrace" || e.Target == "init_module"
			},
		},
		{
			Name:     "write-outside-app",
			Priority: PriorityNotice,
			Cond: func(e trace.Event, _ []trace.Event) bool {
				if e.Type != trace.EventFileWrite {
					return false
				}
				for _, p := range []string{"/app/", "/out/", "/tmp/"} {
					if strings.HasPrefix(e.Target, p) {
						return false
					}
				}
				return true
			},
		},
	}
}

func hostOf(target string) string {
	if i := strings.LastIndex(target, ":"); i >= 0 {
		return target[:i]
	}
	return target
}
