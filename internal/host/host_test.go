package host

import (
	"errors"
	"testing"
)

func TestPackageLifecycle(t *testing.T) {
	h := New("n1", "onl-debian10")
	h.InstallPackage(Package{Name: "curl", Version: "7.64.0"})
	v, ok := h.PackageVersion("curl")
	if !ok || v != "7.64.0" {
		t.Fatalf("PackageVersion = %q, %v", v, ok)
	}
	if err := h.RemovePackage("curl"); err != nil {
		t.Fatalf("RemovePackage: %v", err)
	}
	if _, ok := h.PackageVersion("curl"); ok {
		t.Fatal("package still present after removal")
	}
	if err := h.RemovePackage("curl"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestPackagesSorted(t *testing.T) {
	h := New("n1", "d")
	h.InstallPackage(Package{Name: "zsh"})
	h.InstallPackage(Package{Name: "bash"})
	h.InstallPackage(Package{Name: "curl"})
	pkgs := h.Packages()
	if len(pkgs) != 3 || pkgs[0].Name != "bash" || pkgs[2].Name != "zsh" {
		t.Fatalf("Packages = %+v", pkgs)
	}
}

func TestServiceLifecycle(t *testing.T) {
	h := New("n1", "d")
	h.SetService(Service{Name: "sshd", Enabled: true, ListenPort: 22})
	if err := h.DisableService("sshd"); err != nil {
		t.Fatalf("DisableService: %v", err)
	}
	s, ok := h.Service("sshd")
	if !ok || s.Enabled {
		t.Fatalf("Service = %+v, %v", s, ok)
	}
	if err := h.DisableService("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestFileLifecycle(t *testing.T) {
	h := New("n1", "d")
	h.WriteFile(File{Path: "/etc/x", Mode: 0o644, Content: []byte("a")})
	f, err := h.ReadFile("/etc/x")
	if err != nil || string(f.Content) != "a" {
		t.Fatalf("ReadFile = %+v, %v", f, err)
	}
	if _, err := h.ReadFile("/etc/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestFilesPrefixFilter(t *testing.T) {
	h := New("n1", "d")
	h.WriteFile(File{Path: "/etc/a"})
	h.WriteFile(File{Path: "/etc/b"})
	h.WriteFile(File{Path: "/var/c"})
	if got := len(h.Files("/etc/")); got != 2 {
		t.Fatalf("Files(/etc/) = %d, want 2", got)
	}
	if got := len(h.Files("")); got != 3 {
		t.Fatalf("Files(\"\") = %d, want 3", got)
	}
}

func TestKernelAndSysctl(t *testing.T) {
	h := New("n1", "d")
	h.SetKernelConfig("CONFIG_KEXEC", "y")
	if h.KernelConfig("CONFIG_KEXEC") != "y" {
		t.Fatal("KernelConfig readback failed")
	}
	if h.KernelConfig("CONFIG_MISSING") != "" {
		t.Fatal("missing config should be empty")
	}
	h.SetSysctl("kernel.kptr_restrict", "2")
	if h.Sysctl("kernel.kptr_restrict") != "2" {
		t.Fatal("Sysctl readback failed")
	}
	h.SetBootParam("mitigations", "auto")
	if h.BootParam("mitigations") != "auto" {
		t.Fatal("BootParam readback failed")
	}
}

func TestONLFixtureShape(t *testing.T) {
	h := NewONLOLT("olt-01")
	if h.Distro != "onl-debian10" {
		t.Fatalf("Distro = %s", h.Distro)
	}
	if _, ok := h.PackageVersion("onos"); !ok {
		t.Fatal("ONL OLT must carry onos")
	}
	// Insecure defaults present before hardening.
	if s, _ := h.Service("telnetd"); !s.Enabled {
		t.Fatal("fixture should start with telnetd enabled")
	}
	if h.KernelConfig("CONFIG_KEXEC") != "y" {
		t.Fatal("fixture should start with KEXEC enabled")
	}
	if len(h.packages) == 0 || len(h.services) == 0 || len(h.files) == 0 {
		t.Fatalf("fixture holds %d packages, %d services, %d files", len(h.packages), len(h.services), len(h.files))
	}
}

func TestHardenONLOLT(t *testing.T) {
	h := NewONLOLT("olt-01")
	changes := HardenONLOLT(h)
	if changes == 0 {
		t.Fatal("hardening applied no changes")
	}
	if s, _ := h.Service("telnetd"); s.Enabled {
		t.Fatal("telnetd still enabled after hardening")
	}
	if _, ok := h.PackageVersion("telnetd"); ok {
		t.Fatal("telnetd package still installed after hardening")
	}
	if h.KernelConfig("CONFIG_KEXEC") != "n" {
		t.Fatal("KEXEC still enabled after hardening")
	}
	if h.Sysctl("kernel.kptr_restrict") != "2" {
		t.Fatal("kptr_restrict not tightened")
	}
	f, err := h.ReadFile("/etc/ssh/sshd_config")
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Content[:18]) != "PermitRootLogin no" {
		t.Fatalf("sshd_config not hardened: %q", f.Content)
	}
	// Hardening twice applies fewer changes (idempotent-ish: removals gone).
	again := HardenONLOLT(h)
	if again >= changes {
		t.Fatalf("second hardening pass = %d changes, want < %d", again, changes)
	}
}

func TestUbuntuFixtureAlreadyHardened(t *testing.T) {
	h := NewUbuntuServer("u1")
	if h.KernelConfig("CONFIG_STACKPROTECTOR_STRONG") != "y" {
		t.Fatal("ubuntu fixture should ship hardened kernel config")
	}
	var ports []int
	for _, s := range h.services {
		if s.Enabled && s.ListenPort > 0 {
			ports = append(ports, s.ListenPort)
		}
	}
	if len(ports) != 1 || ports[0] != 22 {
		t.Fatalf("listening ports = %v, want [22]", ports)
	}
}
