// Package host models the operating-system state of a GENIO node: installed
// packages, running services, user accounts, kernel build configuration,
// sysctl values, and a file tree.
//
// The paper's infrastructure-level mitigations (M1 OS configuration, M2
// kernel hardening, M7 file integrity, M8 vulnerability scanning) all act on
// exactly this state. Modelling it as data lets the scanners and hardening
// engines in sibling packages operate deterministically without a real ONL
// Debian installation.
package host

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Package is an installed software package.
type Package struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	// Path is the installation prefix. ONL installs SDN components under
	// non-standard prefixes, which is the Lesson-4 scanner-tuning problem.
	Path string `json:"path"`
}

// Service is a system service.
type Service struct {
	Name    string `json:"name"`
	Enabled bool   `json:"enabled"`
	// ListenPort is 0 for non-network services.
	ListenPort int `json:"listenPort"`
}

// Account is an OS user account.
type Account struct {
	Name          string `json:"name"`
	UID           int    `json:"uid"`
	Shell         string `json:"shell"`
	PasswordLogin bool   `json:"passwordLogin"`
	Sudo          bool   `json:"sudo"`
}

// File is an entry in the modelled filesystem.
type File struct {
	Path    string `json:"path"`
	Mode    uint32 `json:"mode"` // unix permission bits
	Owner   string `json:"owner"`
	Content []byte `json:"content"`
}

// Host is a modelled GENIO node OS. Safe for concurrent use.
type Host struct {
	mu sync.RWMutex

	Name   string
	Distro string // e.g. "onl-debian10", "ubuntu22.04"

	packages map[string]Package
	services map[string]Service
	accounts map[string]Account
	files    map[string]File
	// KernelConfig holds CONFIG_* build options (value "y", "n", "m" or numbers).
	kernelConfig map[string]string
	// Sysctl holds runtime kernel parameters.
	sysctl map[string]string
	// BootParams holds kernel command-line parameters.
	bootParams map[string]string
}

// ErrNotFound is returned when a queried entity does not exist.
var ErrNotFound = errors.New("host: not found")

// New creates an empty host.
func New(name, distro string) *Host {
	return &Host{
		Name:         name,
		Distro:       distro,
		packages:     make(map[string]Package),
		services:     make(map[string]Service),
		accounts:     make(map[string]Account),
		files:        make(map[string]File),
		kernelConfig: make(map[string]string),
		sysctl:       make(map[string]string),
		bootParams:   make(map[string]string),
	}
}

// InstallPackage adds or replaces a package.
func (h *Host) InstallPackage(p Package) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.packages[p.Name] = p
}

// RemovePackage uninstalls a package.
func (h *Host) RemovePackage(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.packages[name]; !ok {
		return fmt.Errorf("%w: package %s", ErrNotFound, name)
	}
	delete(h.packages, name)
	return nil
}

// PackageVersion returns the installed version of a package.
func (h *Host) PackageVersion(name string) (string, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	p, ok := h.packages[name]
	return p.Version, ok
}

// Packages returns all installed packages sorted by name.
func (h *Host) Packages() []Package {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]Package, 0, len(h.packages))
	for _, p := range h.packages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetService adds or replaces a service.
func (h *Host) SetService(s Service) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.services[s.Name] = s
}

// DisableService marks a service disabled.
func (h *Host) DisableService(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.services[name]
	if !ok {
		return fmt.Errorf("%w: service %s", ErrNotFound, name)
	}
	s.Enabled = false
	h.services[name] = s
	return nil
}

// Service returns a service by name.
func (h *Host) Service(name string) (Service, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s, ok := h.services[name]
	return s, ok
}

// SetAccount adds or replaces an account.
func (h *Host) SetAccount(a Account) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.accounts[a.Name] = a
}

// Accounts returns all accounts sorted by name.
func (h *Host) Accounts() []Account {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]Account, 0, len(h.accounts))
	for _, a := range h.accounts {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteFile creates or replaces a file.
func (h *Host) WriteFile(f File) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.files[f.Path] = f
}

// ReadFile returns a file by path.
func (h *Host) ReadFile(path string) (File, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	f, ok := h.files[path]
	if !ok {
		return File{}, fmt.Errorf("%w: file %s", ErrNotFound, path)
	}
	return f, nil
}

// Files returns paths matching prefix (all files for ""), sorted.
func (h *Host) Files(prefix string) []File {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]File, 0, len(h.files))
	for p, f := range h.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// SetKernelConfig sets a CONFIG_* build option.
func (h *Host) SetKernelConfig(key, value string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.kernelConfig[key] = value
}

// KernelConfig returns a CONFIG_* value ("" if unset).
func (h *Host) KernelConfig(key string) string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.kernelConfig[key]
}

// SetSysctl sets a runtime kernel parameter.
func (h *Host) SetSysctl(key, value string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sysctl[key] = value
}

// Sysctl returns a kernel parameter value ("" if unset).
func (h *Host) Sysctl(key string) string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.sysctl[key]
}

// SetBootParam sets a kernel command-line parameter.
func (h *Host) SetBootParam(key, value string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bootParams[key] = value
}

// BootParam returns a kernel command-line parameter ("" if unset).
func (h *Host) BootParam(key string) string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.bootParams[key]
}
