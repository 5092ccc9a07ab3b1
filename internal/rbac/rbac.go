// Package rbac implements the role-based access control engine GENIO
// applies across its middleware (M10): roles granting verb/resource
// permissions, bindings attaching roles to subjects, and policy evaluation.
//
// Beyond enforcement it provides the audit tooling the paper's Lesson 5
// calls for: a least-privilege audit comparing granted permissions against
// observed usage, and an allowlist mode for network-management APIs where
// the production capability set is small and closed (the "easy" half of
// Lesson 5, versus feature-rich orchestrator RBAC, the hard half).
package rbac

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Permission is a verb on a resource, optionally namespace-scoped.
// "*" wildcards match any value — and are flagged by the auditor.
type Permission struct {
	Verb      string `json:"verb"`
	Resource  string `json:"resource"`
	Namespace string `json:"namespace,omitempty"` // "" = cluster-scoped / any
}

// String renders verb:resource[@namespace].
func (p Permission) String() string {
	if p.Namespace == "" {
		return p.Verb + ":" + p.Resource
	}
	return p.Verb + ":" + p.Resource + "@" + p.Namespace
}

// Matches reports whether this (possibly wildcarded) grant covers a
// concrete request permission.
func (p Permission) Matches(req Permission) bool {
	return wild(p.Verb, req.Verb) && wild(p.Resource, req.Resource) &&
		(p.Namespace == "" || p.Namespace == "*" || p.Namespace == req.Namespace)
}

func wild(grant, req string) bool { return grant == "*" || grant == req }

// IsWildcard reports whether any field is a wildcard.
func (p Permission) IsWildcard() bool {
	return p.Verb == "*" || p.Resource == "*" || p.Namespace == "*"
}

// Role is a named set of permissions.
type Role struct {
	Name        string       `json:"name"`
	Permissions []Permission `json:"permissions"`
}

// Decision is the outcome of an access check.
type Decision struct {
	Allowed bool   `json:"allowed"`
	Role    string `json:"role,omitempty"` // role that granted access
}

// Engine evaluates RBAC policy. Safe for concurrent use.
type Engine struct {
	mu       sync.RWMutex
	roles    map[string]Role
	bindings map[string][]string // subject -> roles
	// usage records permissions actually exercised per subject, feeding
	// the least-privilege audit.
	usage map[string]map[string]bool
	// AllowAnonymous models the insecure default of some middleware where
	// unauthenticated requests map to a default-privileged subject.
	AllowAnonymous bool
	AnonymousRole  string
}

// NewEngine creates an empty engine (default-deny).
func NewEngine() *Engine {
	return &Engine{
		roles:    make(map[string]Role),
		bindings: make(map[string][]string),
		usage:    make(map[string]map[string]bool),
	}
}

// SetRole installs or replaces a role.
func (e *Engine) SetRole(r Role) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.roles[r.Name] = r
}

// Bind attaches a role to a subject.
func (e *Engine) Bind(subject, role string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.roles[role]; !ok {
		return fmt.Errorf("rbac: unknown role %q", role)
	}
	for _, r := range e.bindings[subject] {
		if r == role {
			return nil
		}
	}
	e.bindings[subject] = append(e.bindings[subject], role)
	return nil
}

// Check evaluates whether subject may perform req, recording usage on
// success. Unknown subjects fall back to the anonymous role when
// AllowAnonymous is set (the insecure default of T5).
func (e *Engine) Check(subject string, req Permission) Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	roles := e.bindings[subject]
	if len(roles) == 0 && e.AllowAnonymous && e.AnonymousRole != "" {
		roles = []string{e.AnonymousRole}
	}
	for _, rn := range roles {
		role, ok := e.roles[rn]
		if !ok {
			continue
		}
		for _, grant := range role.Permissions {
			if grant.Matches(req) {
				if e.usage[subject] == nil {
					e.usage[subject] = make(map[string]bool)
				}
				e.usage[subject][req.String()] = true
				return Decision{Allowed: true, Role: rn}
			}
		}
	}
	return Decision{Allowed: false}
}

// grantedPermissions returns the deduplicated grant list for a subject.
func (e *Engine) grantedPermissions(subject string) []Permission {
	var out []Permission
	seen := make(map[string]bool)
	for _, rn := range e.bindings[subject] {
		role, ok := e.roles[rn]
		if !ok {
			continue
		}
		for _, p := range role.Permissions {
			if !seen[p.String()] {
				seen[p.String()] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// UnusedGrant pairs a subject with a permission it holds but never used.
type UnusedGrant struct {
	Subject    string     `json:"subject"`
	Permission Permission `json:"permission"`
}

// AuditLeastPrivilege compares grants against recorded usage: permissions
// never exercised are candidates for removal. Wildcard grants are always
// reported (usage can never justify them). This is the iterative
// privilege-reduction workflow of Lesson 5.
func (e *Engine) AuditLeastPrivilege() []UnusedGrant {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []UnusedGrant
	subjects := make([]string, 0, len(e.bindings))
	for s := range e.bindings {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)
	for _, s := range subjects {
		used := e.usage[s]
		for _, grant := range e.grantedPermissions(s) {
			if grant.IsWildcard() {
				out = append(out, UnusedGrant{Subject: s, Permission: grant})
				continue
			}
			if !used[grant.String()] {
				out = append(out, UnusedGrant{Subject: s, Permission: grant})
			}
		}
	}
	return out
}

// --- Allowlist mode for network-management APIs ----------------------------

// Allowlist is the closed capability set used for SDN controllers (ONOS,
// VOLTHA) per M10: the production operations are enumerated; everything
// else — shell access, debug endpoints, raw log retrieval — is blocked.
type Allowlist struct {
	Name string
	ops  map[string]bool
	mu   sync.RWMutex
	// Blocked counts denied operations, showing that blocking unneeded
	// functions causes no disruption (Lesson 5) when production traffic
	// only uses listed ops.
	blockedCount int
	allowedCount int
}

// NewAllowlist creates an allowlist with the given permitted operations.
func NewAllowlist(name string, ops ...string) *Allowlist {
	a := &Allowlist{Name: name, ops: make(map[string]bool, len(ops))}
	for _, op := range ops {
		a.ops[strings.ToLower(op)] = true
	}
	return a
}

// Allow checks an operation, recording the outcome.
func (a *Allowlist) Allow(op string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ops[strings.ToLower(op)] {
		a.allowedCount++
		return true
	}
	a.blockedCount++
	return false
}

// Counts reports allowed/blocked operation totals.
func (a *Allowlist) Counts() (allowed, blocked int) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.allowedCount, a.blockedCount
}

// DefaultSDNAllowlist returns the production capability set the paper
// enumerates for network-management software: device registration, logical
// network configuration, diagnostic logging.
func DefaultSDNAllowlist() *Allowlist {
	return NewAllowlist("sdn-production",
		"device.register",
		"device.list",
		"network.configure",
		"network.status",
		"diag.log",
	)
}
