// Package vuln implements GENIO's vulnerability management (M8 for the OS,
// M12 for middleware): a CVE database with version-range matching, scanners
// over host package inventories, a KBOM (Kubernetes bill of materials)
// mapper, and — central to Lesson 6 — a model of advisory *feeds* of
// differing maturity whose publication lag and manual-review cost determine
// the attack window.
package vuln

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Severity is a CVSS-like score bucketed per NVD conventions.
type Severity int

// Severity buckets.
const (
	SeverityLow Severity = iota + 1
	SeverityMedium
	SeverityHigh
	SeverityCritical
)

var severityNames = map[Severity]string{
	SeverityLow:      "low",
	SeverityMedium:   "medium",
	SeverityHigh:     "high",
	SeverityCritical: "critical",
}

// String names the severity.
func (s Severity) String() string {
	if n, ok := severityNames[s]; ok {
		return n
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// SeverityFromCVSS buckets a CVSS 3.x base score.
func SeverityFromCVSS(score float64) Severity {
	switch {
	case score >= 9.0:
		return SeverityCritical
	case score >= 7.0:
		return SeverityHigh
	case score >= 4.0:
		return SeverityMedium
	default:
		return SeverityLow
	}
}

// CVE is one vulnerability record.
type CVE struct {
	ID          string  `json:"id"`
	Package     string  `json:"package"`
	Introduced  string  `json:"introduced"`        // first vulnerable version ("" = all earlier)
	FixedIn     string  `json:"fixedIn,omitempty"` // first fixed version ("" = no fix yet)
	CVSS        float64 `json:"cvss"`
	Exploitable bool    `json:"exploitable"` // known exploit in the wild
	Description string  `json:"description"`
	// DisclosedDay is the simulation day the CVE became public, driving
	// the Lesson-6 attack-window experiments.
	DisclosedDay int `json:"disclosedDay"`
}

// Severity buckets the CVE's CVSS score.
func (c CVE) Severity() Severity { return SeverityFromCVSS(c.CVSS) }

// CompareVersions compares dotted (optionally suffixed) version strings:
// -1 if a<b, 0 if equal, 1 if a>b. Non-numeric suffixes ("p1", "-rc2") break
// ties lexicographically, which matches Debian-ish ordering closely enough
// for the simulation.
func CompareVersions(a, b string) int {
	as, bs := versionParts(a), versionParts(b)
	n := len(as)
	if len(bs) > n {
		n = len(bs)
	}
	for i := 0; i < n; i++ {
		var av, bv part
		if i < len(as) {
			av = as[i]
		}
		if i < len(bs) {
			bv = bs[i]
		}
		if c := av.compare(bv); c != 0 {
			return c
		}
	}
	return 0
}

type part struct {
	num int
	suf string
}

func (p part) compare(o part) int {
	if p.num != o.num {
		if p.num < o.num {
			return -1
		}
		return 1
	}
	return strings.Compare(p.suf, o.suf)
}

func versionParts(v string) []part {
	fields := strings.FieldsFunc(v, func(r rune) bool { return r == '.' || r == '-' })
	out := make([]part, 0, len(fields))
	for _, f := range fields {
		i := 0
		for i < len(f) && f[i] >= '0' && f[i] <= '9' {
			i++
		}
		num := 0
		if i > 0 {
			num, _ = strconv.Atoi(f[:i])
		}
		out = append(out, part{num: num, suf: f[i:]})
	}
	return out
}

// Affects reports whether the CVE applies to the given version.
func (c CVE) Affects(version string) bool {
	if c.Introduced != "" && CompareVersions(version, c.Introduced) < 0 {
		return false
	}
	if c.FixedIn != "" && CompareVersions(version, c.FixedIn) >= 0 {
		return false
	}
	return true
}

// Database is an in-memory CVE catalogue indexed by package. Safe for
// concurrent use.
type Database struct {
	mu   sync.RWMutex
	byID map[string]CVE
	pkg  map[string][]string // package -> cve ids
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{byID: make(map[string]CVE), pkg: make(map[string][]string)}
}

// Add inserts or replaces a CVE record.
func (d *Database) Add(c CVE) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.byID[c.ID]; !exists {
		d.pkg[c.Package] = append(d.pkg[c.Package], c.ID)
	}
	d.byID[c.ID] = c
}

// Get returns a CVE by ID.
func (d *Database) Get(id string) (CVE, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c, ok := d.byID[id]
	return c, ok
}

// Match returns the CVEs affecting the given package version, sorted by
// descending CVSS.
func (d *Database) Match(pkg, version string) []CVE {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []CVE
	for _, id := range d.pkg[pkg] {
		c := d.byID[id]
		if c.Affects(version) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CVSS > out[j].CVSS })
	return out
}

// All returns every record sorted by ID.
func (d *Database) All() []CVE {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]CVE, 0, len(d.byID))
	for _, c := range d.byID {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
