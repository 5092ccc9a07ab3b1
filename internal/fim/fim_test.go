package fim

import (
	"errors"
	"testing"

	"genio/internal/host"
	"genio/internal/tpm"
)

func setup(t *testing.T, cfg Config) (*host.Host, *Monitor) {
	t.Helper()
	h := host.NewONLOLT("olt-01")
	tp, err := tpm.New()
	if err != nil {
		t.Fatalf("tpm.New: %v", err)
	}
	m, err := NewMonitor(h, tp, cfg)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	if err := m.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	return h, m
}

func TestCleanScanNoAlerts(t *testing.T) {
	_, m := setup(t, Config{})
	alerts, err := m.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(alerts) != 0 {
		t.Fatalf("clean scan produced %d alerts: %+v", len(alerts), alerts)
	}
}

func TestModifiedBinaryDetected(t *testing.T) {
	h, m := setup(t, Config{})
	h.WriteFile(host.File{Path: "/usr/sbin/sshd", Mode: 0o755, Owner: "root",
		Content: []byte("backdoored-sshd")})
	alerts, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Path != "/usr/sbin/sshd" || alerts[0].Kind != ChangeModified {
		t.Fatalf("alerts = %+v", alerts)
	}
	if alerts[0].Suppressed {
		t.Fatal("binary change must not be suppressed")
	}
}

func TestAddedAndRemovedDetected(t *testing.T) {
	h, m := setup(t, Config{})
	// The same node after an attacker dropped a miner and deleted
	// /etc/shadow.
	after := host.New(h.Name, h.Distro)
	for _, f := range h.Files("") {
		if f.Path != "/etc/shadow" {
			after.WriteFile(f)
		}
	}
	after.WriteFile(host.File{Path: "/usr/bin/cryptominer", Mode: 0o755, Content: []byte("evil")})
	m.host = after
	alerts, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]ChangeKind{}
	for _, a := range alerts {
		kinds[a.Path] = a.Kind
	}
	if kinds["/usr/bin/cryptominer"] != ChangeAdded {
		t.Fatalf("cryptominer kind = %v", kinds["/usr/bin/cryptominer"])
	}
	if kinds["/etc/shadow"] != ChangeRemoved {
		t.Fatalf("shadow kind = %v", kinds["/etc/shadow"])
	}
}

func TestModeChangeDetected(t *testing.T) {
	h, m := setup(t, Config{})
	f, err := h.ReadFile("/etc/shadow")
	if err != nil {
		t.Fatal(err)
	}
	f.Mode = 0o666 // world-writable shadow file
	h.WriteFile(f)
	alerts, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Kind != ChangeMode {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestMutablePathSuppression(t *testing.T) {
	// Lesson 3: without a mutable-path policy, benign churn (logs, state)
	// floods operators with alerts.
	h, untuned := setup(t, Config{})
	h2 := host.NewONLOLT("olt-02")
	tp, err := tpm.New()
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := NewMonitor(h2, tp, Config{MutablePrefixes: []string{"/var/log/", "/var/lib/genio/"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tuned.Init(); err != nil {
		t.Fatal(err)
	}

	churn := func(hh *host.Host) {
		hh.WriteFile(host.File{Path: "/var/log/syslog", Mode: 0o640, Owner: "root", Content: []byte("more logs\n")})
		hh.WriteFile(host.File{Path: "/var/lib/genio/state.json", Mode: 0o640, Owner: "root", Content: []byte(`{"epoch":2}`)})
	}
	churn(h)
	churn(h2)

	a1, err := untuned.Scan()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := tuned.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(Raised(a1)) != 2 {
		t.Fatalf("untuned raised %d alerts, want 2", len(Raised(a1)))
	}
	if len(Raised(a2)) != 0 {
		t.Fatalf("tuned raised %d alerts, want 0", len(Raised(a2)))
	}
	// The tuned monitor still records the change (auditability).
	if len(a2) != 2 {
		t.Fatalf("tuned recorded %d changes, want 2", len(a2))
	}
}

func TestTunedMonitorStillCatchesBinaryTamper(t *testing.T) {
	h := host.NewONLOLT("olt-01")
	tp, err := tpm.New()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(h, tp, Config{MutablePrefixes: []string{"/var/"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	h.WriteFile(host.File{Path: "/usr/sbin/sshd", Mode: 0o755, Owner: "root", Content: []byte("evil")})
	h.WriteFile(host.File{Path: "/var/log/syslog", Mode: 0o640, Owner: "root", Content: []byte("noise")})
	alerts, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	raised := Raised(alerts)
	if len(raised) != 1 || raised[0].Path != "/usr/sbin/sshd" {
		t.Fatalf("raised = %+v", raised)
	}
}

func TestBaselineTamperDetected(t *testing.T) {
	_, m := setup(t, Config{})
	// Attacker edits the baseline to whitelist their backdoor.
	m.baseline.Entries[0].Digest = "0000000000000000"
	if _, err := m.Scan(); !errors.Is(err, ErrBaselineTampered) {
		t.Fatalf("err = %v, want ErrBaselineTampered", err)
	}
}

func TestScanWithoutBaseline(t *testing.T) {
	h := host.NewONLOLT("olt-01")
	tp, err := tpm.New()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(h, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Scan(); !errors.Is(err, ErrNoBaseline) {
		t.Fatalf("err = %v, want ErrNoBaseline", err)
	}
}

func TestWatchPrefixLimitsScope(t *testing.T) {
	h := host.NewONLOLT("olt-01")
	tp, err := tpm.New()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(h, tp, Config{WatchPrefixes: []string{"/etc/"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	// A change outside the watched tree is invisible.
	h.WriteFile(host.File{Path: "/opt/onos/bin/onos-service", Mode: 0o755, Content: []byte("evil")})
	alerts, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("alerts = %+v, want none outside watch scope", alerts)
	}
	// Inside the tree it is caught.
	h.WriteFile(host.File{Path: "/etc/passwd", Mode: 0o644, Owner: "root", Content: []byte("evil")})
	alerts, err = m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Path != "/etc/passwd" {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(nil, nil, Config{}); err == nil {
		t.Fatal("NewMonitor accepted nil host/tpm")
	}
}

func TestChangeKindString(t *testing.T) {
	if ChangeModified.String() != "modified" || ChangeKind(9).String() != "change(9)" {
		t.Fatal("ChangeKind.String mismatch")
	}
}

// BenchmarkFIMScan: per-operation cost behind Lesson 3 (FIM).
func BenchmarkFIMScan(b *testing.B) {
	h := host.NewONLOLT("olt-bench")
	t, err := tpm.New()
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMonitor(h, t, Config{MutablePrefixes: []string{"/var/log/"}})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Init(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Scan(); err != nil {
			b.Fatal(err)
		}
	}
}
