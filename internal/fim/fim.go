// Package fim implements Tripwire-style file integrity monitoring (M7):
// a cryptographic baseline of critical files, periodic scans that diff the
// live filesystem against it, and alerts on unauthorized change.
//
// Two properties from the paper are modelled faithfully:
//
//   - The baseline database is itself signed, and the signing key is
//     protected by the TPM — tampering with the monitoring process is
//     detectable (M7).
//   - Monitoring must distinguish immutable resources (system binaries,
//     configurations) from legitimately mutable ones (logs, state files);
//     without that policy the monitor drowns operators in misleading
//     alerts (Lesson 3).
package fim

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"genio/internal/host"
	"genio/internal/tpm"
)

// ChangeKind classifies a detected difference.
type ChangeKind int

// Change kinds.
const (
	ChangeModified ChangeKind = iota + 1
	ChangeAdded
	ChangeRemoved
	ChangeMode
)

var changeNames = map[ChangeKind]string{
	ChangeModified: "modified",
	ChangeAdded:    "added",
	ChangeRemoved:  "removed",
	ChangeMode:     "mode-changed",
}

// String names the change kind.
func (c ChangeKind) String() string {
	if n, ok := changeNames[c]; ok {
		return n
	}
	return fmt.Sprintf("change(%d)", int(c))
}

// Alert is one integrity finding from a scan.
type Alert struct {
	Path string     `json:"path"`
	Kind ChangeKind `json:"kind"`
	// Suppressed is true when the path matched a mutable-path rule: the
	// change is recorded but not raised to operators.
	Suppressed bool `json:"suppressed"`
}

// entry is a baselined file record.
type entry struct {
	Path   string `json:"path"`
	Mode   uint32 `json:"mode"`
	Owner  string `json:"owner"`
	Digest string `json:"digest"`
}

// Baseline is the signed integrity database.
type Baseline struct {
	Entries   []entry `json:"entries"`
	Signature []byte  `json:"signature"`
}

// Errors returned by the monitor.
var (
	ErrBaselineTampered = errors.New("fim: baseline database tampered")
	ErrNoBaseline       = errors.New("fim: no baseline")
	ErrKeyUnavailable   = errors.New("fim: signing key unavailable")
)

// nvKeyIndex is the TPM NV index storing the baseline signing key seed.
const nvKeyIndex = "fim-baseline-key"

// Monitor watches a host's files. The baseline signing key lives in TPM NV
// storage so an attacker who alters the baseline cannot re-sign it.
type Monitor struct {
	host     *host.Host
	tpm      *tpm.TPM
	watch    []string // path prefixes to baseline
	mutable  []string // path prefixes considered legitimately mutable
	baseline *Baseline
}

// Config configures a Monitor.
type Config struct {
	// WatchPrefixes selects which parts of the tree are baselined.
	WatchPrefixes []string
	// MutablePrefixes marks paths whose changes are expected (logs, state).
	// Empty means every change alerts — the untuned Lesson-3 posture.
	MutablePrefixes []string
}

// NewMonitor creates a monitor over h using t to protect the signing key.
func NewMonitor(h *host.Host, t *tpm.TPM, cfg Config) (*Monitor, error) {
	if h == nil || t == nil {
		return nil, errors.New("fim: host and tpm required")
	}
	watch := cfg.WatchPrefixes
	if len(watch) == 0 {
		watch = []string{""}
	}
	m := &Monitor{
		host:    h,
		tpm:     t,
		watch:   append([]string(nil), watch...),
		mutable: append([]string(nil), cfg.MutablePrefixes...),
	}
	if _, ok := t.NVRead(nvKeyIndex); !ok {
		seed := make([]byte, ed25519.SeedSize)
		sum := sha256.Sum256([]byte(h.Name + "-fim-seed"))
		copy(seed, sum[:])
		t.NVWrite(nvKeyIndex, seed)
	}
	return m, nil
}

func (m *Monitor) signingKey() (ed25519.PrivateKey, error) {
	seed, ok := m.tpm.NVRead(nvKeyIndex)
	if !ok {
		return nil, ErrKeyUnavailable
	}
	return ed25519.NewKeyFromSeed(seed), nil
}

// collect gathers entries for all watched files, sorted by path.
func (m *Monitor) collect() []entry {
	seen := make(map[string]bool)
	var entries []entry
	for _, prefix := range m.watch {
		for _, f := range m.host.Files(prefix) {
			if seen[f.Path] {
				continue
			}
			seen[f.Path] = true
			sum := sha256.Sum256(f.Content)
			entries = append(entries, entry{
				Path:   f.Path,
				Mode:   f.Mode,
				Owner:  f.Owner,
				Digest: fmt.Sprintf("%x", sum),
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	return entries
}

func baselineMessage(entries []entry) []byte {
	b, err := json.Marshal(entries)
	if err != nil {
		panic(fmt.Sprintf("fim: marshal entries: %v", err))
	}
	h := sha256.Sum256(b)
	return h[:]
}

// Init captures and signs a fresh baseline of the watched tree.
func (m *Monitor) Init() error {
	key, err := m.signingKey()
	if err != nil {
		return err
	}
	entries := m.collect()
	m.baseline = &Baseline{
		Entries:   entries,
		Signature: ed25519.Sign(key, baselineMessage(entries)),
	}
	return nil
}

// isMutable reports whether path falls under a mutable-path rule.
func (m *Monitor) isMutable(path string) bool {
	for _, p := range m.mutable {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// Scan diffs the live tree against the baseline. It first verifies the
// baseline signature with the TPM-protected key: a tampered database aborts
// the scan with ErrBaselineTampered.
func (m *Monitor) Scan() ([]Alert, error) {
	if m.baseline == nil {
		return nil, ErrNoBaseline
	}
	key, err := m.signingKey()
	if err != nil {
		return nil, err
	}
	pub, ok := key.Public().(ed25519.PublicKey)
	if !ok {
		return nil, ErrKeyUnavailable
	}
	if !ed25519.Verify(pub, baselineMessage(m.baseline.Entries), m.baseline.Signature) {
		return nil, ErrBaselineTampered
	}

	base := make(map[string]entry, len(m.baseline.Entries))
	for _, e := range m.baseline.Entries {
		base[e.Path] = e
	}
	live := make(map[string]entry)
	for _, e := range m.collect() {
		live[e.Path] = e
	}

	var alerts []Alert
	add := func(path string, kind ChangeKind) {
		alerts = append(alerts, Alert{Path: path, Kind: kind, Suppressed: m.isMutable(path)})
	}
	for path, b := range base {
		l, exists := live[path]
		switch {
		case !exists:
			add(path, ChangeRemoved)
		case l.Digest != b.Digest:
			add(path, ChangeModified)
		case l.Mode != b.Mode || l.Owner != b.Owner:
			add(path, ChangeMode)
		}
	}
	for path := range live {
		if _, exists := base[path]; !exists {
			add(path, ChangeAdded)
		}
	}
	sort.Slice(alerts, func(i, j int) bool { return alerts[i].Path < alerts[j].Path })
	return alerts, nil
}

// Raised filters alerts to those actually surfaced to operators (not
// suppressed by the mutable-path policy).
func Raised(alerts []Alert) []Alert {
	var out []Alert
	for _, a := range alerts {
		if !a.Suppressed {
			out = append(out, a)
		}
	}
	return out
}
