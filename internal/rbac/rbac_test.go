package rbac

import (
	"testing"
	"testing/quick"
)

func TestDefaultDeny(t *testing.T) {
	e := NewEngine()
	d := e.Check("nobody", Permission{Verb: "get", Resource: "pods"})
	if d.Allowed {
		t.Fatal("empty engine allowed a request")
	}
}

func TestBindAndCheck(t *testing.T) {
	e := NewEngine()
	e.SetRole(Role{Name: "pod-reader", Permissions: []Permission{
		{Verb: "get", Resource: "pods"},
		{Verb: "list", Resource: "pods"},
	}})
	if err := e.Bind("alice", "pod-reader"); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if d := e.Check("alice", Permission{Verb: "get", Resource: "pods"}); !d.Allowed || d.Role != "pod-reader" {
		t.Fatalf("Check = %+v", d)
	}
	if d := e.Check("alice", Permission{Verb: "delete", Resource: "pods"}); d.Allowed {
		t.Fatal("delete allowed without grant")
	}
	if d := e.Check("bob", Permission{Verb: "get", Resource: "pods"}); d.Allowed {
		t.Fatal("unbound subject allowed")
	}
}

func TestBindUnknownRole(t *testing.T) {
	e := NewEngine()
	if err := e.Bind("alice", "ghost"); err == nil {
		t.Fatal("Bind to unknown role succeeded")
	}
}

func TestBindIdempotent(t *testing.T) {
	e := NewEngine()
	e.SetRole(Role{Name: "r", Permissions: []Permission{{Verb: "get", Resource: "x"}}})
	if err := e.Bind("a", "r"); err != nil {
		t.Fatal(err)
	}
	if err := e.Bind("a", "r"); err != nil {
		t.Fatal(err)
	}
	if got := len(e.bindings["a"]); got != 1 {
		t.Fatalf("a holds %d bindings, want 1 (duplicate binding)", got)
	}
}

func TestNamespaceScoping(t *testing.T) {
	e := NewEngine()
	e.SetRole(Role{Name: "tenant-a-admin", Permissions: []Permission{
		{Verb: "*", Resource: "pods", Namespace: "tenant-a"},
	}})
	if err := e.Bind("svc-a", "tenant-a-admin"); err != nil {
		t.Fatal(err)
	}
	if d := e.Check("svc-a", Permission{Verb: "delete", Resource: "pods", Namespace: "tenant-a"}); !d.Allowed {
		t.Fatal("in-namespace request denied")
	}
	if d := e.Check("svc-a", Permission{Verb: "get", Resource: "pods", Namespace: "tenant-b"}); d.Allowed {
		t.Fatal("cross-namespace request allowed (lateral movement, T5)")
	}
}

func TestWildcardMatching(t *testing.T) {
	admin := Permission{Verb: "*", Resource: "*"}
	if !admin.Matches(Permission{Verb: "delete", Resource: "secrets", Namespace: "kube-system"}) {
		t.Fatal("cluster-admin wildcard failed to match")
	}
	if !admin.IsWildcard() {
		t.Fatal("IsWildcard false for */*")
	}
	scoped := Permission{Verb: "get", Resource: "pods", Namespace: "ns1"}
	if scoped.IsWildcard() {
		t.Fatal("IsWildcard true for concrete permission")
	}
}

func TestAnonymousAccessInsecureDefault(t *testing.T) {
	e := NewEngine()
	e.SetRole(Role{Name: "default-view", Permissions: []Permission{{Verb: "get", Resource: "*"}}})
	e.AllowAnonymous = true
	e.AnonymousRole = "default-view"
	if d := e.Check("random-stranger", Permission{Verb: "get", Resource: "secrets"}); !d.Allowed {
		t.Fatal("insecure default not modelled: anonymous should be allowed")
	}
	// Hardening: disable anonymous.
	e.AllowAnonymous = false
	if d := e.Check("random-stranger", Permission{Verb: "get", Resource: "secrets"}); d.Allowed {
		t.Fatal("anonymous allowed after hardening")
	}
}

func TestLeastPrivilegeAudit(t *testing.T) {
	e := NewEngine()
	e.SetRole(Role{Name: "deployer", Permissions: []Permission{
		{Verb: "create", Resource: "pods"},
		{Verb: "delete", Resource: "pods"},
		{Verb: "get", Resource: "secrets"}, // never used
	}})
	if err := e.Bind("ci-bot", "deployer"); err != nil {
		t.Fatal(err)
	}
	// Observed production usage: create and delete only.
	e.Check("ci-bot", Permission{Verb: "create", Resource: "pods"})
	e.Check("ci-bot", Permission{Verb: "delete", Resource: "pods"})

	unused := e.AuditLeastPrivilege()
	if len(unused) != 1 || unused[0].Permission.Resource != "secrets" {
		t.Fatalf("unused = %+v", unused)
	}
}

func TestLeastPrivilegeAlwaysFlagsWildcards(t *testing.T) {
	e := NewEngine()
	e.SetRole(Role{Name: "admin", Permissions: []Permission{{Verb: "*", Resource: "*"}}})
	if err := e.Bind("ops", "admin"); err != nil {
		t.Fatal(err)
	}
	// Heavy usage cannot justify a wildcard.
	e.Check("ops", Permission{Verb: "get", Resource: "pods"})
	e.Check("ops", Permission{Verb: "delete", Resource: "nodes"})
	unused := e.AuditLeastPrivilege()
	if len(unused) != 1 || !unused[0].Permission.IsWildcard() {
		t.Fatalf("unused = %+v", unused)
	}
}

func TestPrivilegeReductionWorkflow(t *testing.T) {
	// Lesson 5's iterative tightening: start from wildcard, observe usage,
	// replace with concrete grants, verify workloads still pass.
	e := NewEngine()
	e.SetRole(Role{Name: "workload", Permissions: []Permission{{Verb: "*", Resource: "*"}}})
	if err := e.Bind("svc", "workload"); err != nil {
		t.Fatal(err)
	}
	traffic := []Permission{
		{Verb: "get", Resource: "configmaps"},
		{Verb: "watch", Resource: "pods"},
	}
	for _, p := range traffic {
		if d := e.Check("svc", p); !d.Allowed {
			t.Fatalf("baseline traffic denied: %v", p)
		}
	}
	// Tighten: concrete role from observed usage.
	e.SetRole(Role{Name: "workload", Permissions: traffic})
	for _, p := range traffic {
		if d := e.Check("svc", p); !d.Allowed {
			t.Fatalf("traffic denied after tightening: %v", p)
		}
	}
	if d := e.Check("svc", Permission{Verb: "delete", Resource: "nodes"}); d.Allowed {
		t.Fatal("escalation path still open after tightening")
	}
	if len(e.AuditLeastPrivilege()) != 0 {
		t.Fatalf("audit still unhappy: %+v", e.AuditLeastPrivilege())
	}
}

func TestAllowlistBlocksUnlistedOps(t *testing.T) {
	a := DefaultSDNAllowlist()
	if !a.Allow("device.register") {
		t.Fatal("production op blocked")
	}
	if !a.Allow("DEVICE.LIST") { // case-insensitive
		t.Fatal("case-insensitive match failed")
	}
	for _, op := range []string{"shell.exec", "debug.attach", "log.raw"} {
		if a.Allow(op) {
			t.Fatalf("dangerous op %q allowed", op)
		}
	}
	allowed, blocked := a.Counts()
	if allowed != 2 || blocked != 3 {
		t.Fatalf("Counts = %d/%d", allowed, blocked)
	}
}

func TestPermissionString(t *testing.T) {
	p := Permission{Verb: "get", Resource: "pods"}
	if p.String() != "get:pods" {
		t.Fatalf("String = %q", p.String())
	}
	p.Namespace = "ns"
	if p.String() != "get:pods@ns" {
		t.Fatalf("String = %q", p.String())
	}
}

// Property: a concrete grant matches exactly itself among concrete requests.
func TestConcreteMatchProperty(t *testing.T) {
	verbs := []string{"get", "list", "create", "delete"}
	resources := []string{"pods", "secrets", "nodes"}
	f := func(gi, gj, ri, rj uint8) bool {
		grant := Permission{Verb: verbs[int(gi)%len(verbs)], Resource: resources[int(gj)%len(resources)]}
		req := Permission{Verb: verbs[int(ri)%len(verbs)], Resource: resources[int(rj)%len(resources)]}
		want := grant.Verb == req.Verb && grant.Resource == req.Resource
		return grant.Matches(req) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: granting strictly more roles never turns an allowed request
// into a denied one (monotonicity).
func TestMonotonicityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		e := NewEngine()
		e.SetRole(Role{Name: "r1", Permissions: []Permission{{Verb: "get", Resource: "pods"}}})
		e.SetRole(Role{Name: "r2", Permissions: []Permission{{Verb: "delete", Resource: "nodes"}}})
		if err := e.Bind("s", "r1"); err != nil {
			return false
		}
		req := Permission{Verb: "get", Resource: "pods"}
		before := e.Check("s", req).Allowed
		if err := e.Bind("s", "r2"); err != nil {
			return false
		}
		after := e.Check("s", req).Allowed
		return !before || after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSDNAllowlist: per-operation cost behind Lesson 5 (SDN allowlist).
func BenchmarkSDNAllowlist(b *testing.B) {
	a := DefaultSDNAllowlist()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Allow("device.register")
		a.Allow("shell.exec")
	}
}
