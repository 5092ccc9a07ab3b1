// Package sandbox implements LSM-style runtime enforcement for GENIO
// workloads (M17, the KubeArmor role): a policy that allows or blocks
// process executions, file accesses, network egress, capabilities, and
// syscalls, applied inline to the event stream. One baseline
// (DefaultWorkloadPolicy) confines every workload, placed or not, so an
// event is never waved through for lack of a table entry; a named
// override replaces it for one workload.
package sandbox

import (
	"fmt"
	"strings"
	"sync"

	"genio/internal/trace"
)

// Action is the policy decision for a matched event.
type Action int

// Actions.
const (
	ActionAllow Action = iota + 1
	ActionBlock
	// ActionAudit permits the event but records it (detection-only mode).
	ActionAudit
)

var actionNames = map[Action]string{ActionAllow: "allow", ActionBlock: "block", ActionAudit: "audit"}

// String names the action.
func (a Action) String() string {
	if n, ok := actionNames[a]; ok {
		return n
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// PolicyRule matches runtime events by type and target prefix.
type PolicyRule struct {
	Types []trace.EventType `json:"types"`
	// TargetPrefix matches event targets by prefix; "" matches all.
	TargetPrefix string `json:"targetPrefix"`
	Action       Action `json:"action"`
}

func (r PolicyRule) matches(e trace.Event) bool {
	typeOK := len(r.Types) == 0
	for _, t := range r.Types {
		if t == e.Type {
			typeOK = true
			break
		}
	}
	if !typeOK {
		return false
	}
	return r.TargetPrefix == "" || strings.HasPrefix(e.Target, r.TargetPrefix)
}

// Policy is an ordered rule list with a default action; first match wins,
// like LSM policy evaluation.
type Policy struct {
	Name          string       `json:"name"`
	Rules         []PolicyRule `json:"rules"`
	DefaultAction Action       `json:"defaultAction"`
}

// Decide evaluates one event.
func (p Policy) Decide(e trace.Event) Action {
	for _, r := range p.Rules {
		if r.matches(e) {
			return r.Action
		}
	}
	if p.DefaultAction == 0 {
		return ActionAllow
	}
	return p.DefaultAction
}

// Verdict records one enforcement decision.
type Verdict struct {
	Event  trace.Event `json:"event"`
	Action Action      `json:"action"`
}

// Enforcer applies the baseline, or a workload's override, to event
// streams. Safe for concurrent use.
type Enforcer struct {
	mu        sync.RWMutex
	overrides map[string]Policy // workload -> policy replacing the baseline
	blocked   map[string]int
	audited   map[string]int
}

// NewEnforcer creates an enforcer that confines every workload with
// DefaultWorkloadPolicy, including workloads it has never heard of.
func NewEnforcer() *Enforcer {
	return &Enforcer{
		overrides: make(map[string]Policy),
		blocked:   make(map[string]int),
		audited:   make(map[string]int),
	}
}

// SetPolicy overrides the baseline for one workload; the zero Policy
// allows everything. Nothing needs it to confine a workload.
func (e *Enforcer) SetPolicy(workload string, p Policy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.overrides[workload] = p
}

// Process runs a full trace through enforcement. Blocked events terminate
// the trace (the process would be killed), returning the verdicts so far.
// Policy evaluation holds only the read lock, so concurrent workload
// streams enforce in parallel; counters are applied in one write at the
// end of the batch.
func (e *Enforcer) Process(events []trace.Event) []Verdict {
	out := make([]Verdict, 0, len(events))
	var blocked, audited map[string]int
	e.mu.RLock()
	for _, ev := range events {
		p, ok := e.overrides[ev.Workload]
		if !ok {
			p = baseline
		}
		a := p.Decide(ev)
		switch a {
		case ActionBlock:
			if blocked == nil {
				blocked = make(map[string]int)
			}
			blocked[ev.Workload]++
		case ActionAudit:
			if audited == nil {
				audited = make(map[string]int)
			}
			audited[ev.Workload]++
		}
		out = append(out, Verdict{Event: ev, Action: a})
		if a == ActionBlock {
			break
		}
	}
	e.mu.RUnlock()
	if blocked != nil || audited != nil {
		e.mu.Lock()
		for w, n := range blocked {
			e.blocked[w] += n
		}
		for w, n := range audited {
			e.audited[w] += n
		}
		e.mu.Unlock()
	}
	return out
}

// Counts reports blocked/audited totals for a workload.
func (e *Enforcer) Counts(workload string) (blocked, audited int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.blocked[workload], e.audited[workload]
}

// Blocked filters verdicts to blocked events.
func Blocked(vs []Verdict) []Verdict {
	var out []Verdict
	for _, v := range vs {
		if v.Action == ActionBlock {
			out = append(out, v)
		}
	}
	return out
}

// baseline is the policy of every workload without an override. Its
// rules are shared by every DefaultWorkloadPolicy and never written.
var baseline = DefaultWorkloadPolicy()

var baselineRules = []PolicyRule{
	{Types: []trace.EventType{trace.EventCapability}, TargetPrefix: "CAP_SYS_ADMIN", Action: ActionBlock},
	{Types: []trace.EventType{trace.EventCapability}, TargetPrefix: "CAP_SYS_PTRACE", Action: ActionBlock},
	{Types: []trace.EventType{trace.EventSyscall}, TargetPrefix: "mount", Action: ActionBlock},
	{Types: []trace.EventType{trace.EventSyscall}, TargetPrefix: "ptrace", Action: ActionBlock},
	{Types: []trace.EventType{trace.EventFileOpen, trace.EventFileWrite}, TargetPrefix: "/host/", Action: ActionBlock},
	{Types: []trace.EventType{trace.EventFileOpen}, TargetPrefix: "/etc/shadow", Action: ActionBlock},
	{Types: []trace.EventType{trace.EventExec}, TargetPrefix: "/bin/bash", Action: ActionBlock},
	{Types: []trace.EventType{trace.EventExec}, TargetPrefix: "/bin/sh", Action: ActionBlock},
	{Types: []trace.EventType{trace.EventFileWrite}, TargetPrefix: "/var/log/", Action: ActionAllow},
	{Types: []trace.EventType{trace.EventFileWrite}, TargetPrefix: "/out/", Action: ActionAllow},
	{Types: []trace.EventType{trace.EventFileWrite}, TargetPrefix: "", Action: ActionAudit},
}

// DefaultWorkloadPolicy returns the baseline every Enforcer applies: block
// dangerous capabilities, privileged syscalls, host-filesystem access,
// and shells; audit writes outside the app tree.
func DefaultWorkloadPolicy() Policy {
	return Policy{Name: "genio-baseline", Rules: baselineRules, DefaultAction: ActionAllow}
}
