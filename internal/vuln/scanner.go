package vuln

import (
	"sort"
	"strings"

	"genio/internal/host"
)

// Finding is one vulnerability detected on a target.
type Finding struct {
	CVE     CVE    `json:"cve"`
	Package string `json:"package"`
	Version string `json:"version"`
	Path    string `json:"path"`
}

// Scanner scans host package inventories against a CVE database, in the
// role of Vuls/Lynis/OpenSCAP-CVE (M8).
//
// SearchPaths models the Lesson-4 tuning requirement: scanners enumerate
// packages under known installation prefixes. ONL installs SDN software
// under non-standard prefixes (/opt/onos, /lib/onl); until those paths are
// added to the scanner configuration, those packages are silently skipped.
type Scanner struct {
	DB *Database
	// SearchPaths are the installation prefixes the scanner covers. Empty
	// means the standard set.
	SearchPaths []string
}

// StandardPaths are the prefixes every stock scanner knows.
var StandardPaths = []string{"/usr", "/bin", "/sbin", "/boot", "/lib/x86_64"}

// NewScanner creates a scanner with the standard search paths.
func NewScanner(db *Database) *Scanner {
	return &Scanner{DB: db, SearchPaths: append([]string(nil), StandardPaths...)}
}

// AddSearchPath extends scanner coverage with a non-standard prefix
// (the manual tuning step of Lesson 4).
func (s *Scanner) AddSearchPath(prefix string) {
	s.SearchPaths = append(s.SearchPaths, prefix)
}

func (s *Scanner) covers(path string) bool {
	for _, p := range s.SearchPaths {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// ScanReport summarizes a host scan.
type ScanReport struct {
	Target   string    `json:"target"`
	Findings []Finding `json:"findings"`
	// Scanned and Skipped count packages inside / outside search paths;
	// Skipped > 0 is the Lesson-4 blind spot.
	Scanned int `json:"scanned"`
	Skipped int `json:"skipped"`
}

// Scan enumerates host packages under the configured search paths and
// matches them against the database.
func (s *Scanner) Scan(h *host.Host) *ScanReport {
	rep := &ScanReport{Target: h.Name}
	for _, p := range h.Packages() {
		if !s.covers(p.Path) {
			rep.Skipped++
			continue
		}
		rep.Scanned++
		for _, c := range s.DB.Match(p.Name, p.Version) {
			rep.Findings = append(rep.Findings, Finding{
				CVE: c, Package: p.Name, Version: p.Version, Path: p.Path,
			})
		}
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].CVE.CVSS > rep.Findings[j].CVE.CVSS
	})
	return rep
}

// DefaultDatabase returns the CVE dataset matching the fixture hosts and
// middleware versions used across experiments. Records are synthetic but
// patterned on real advisories for those component lines.
func DefaultDatabase() *Database {
	db := NewDatabase()
	for _, c := range []CVE{
		{ID: "CVE-2023-1001", Package: "openssh-server", Introduced: "7.0", FixedIn: "8.0",
			CVSS: 7.8, Exploitable: true, Description: "privilege escalation via crafted auth request", DisclosedDay: 3},
		{ID: "CVE-2023-1002", Package: "openssl", Introduced: "1.1.0", FixedIn: "1.1.1t",
			CVSS: 5.9, Description: "timing side channel in RSA", DisclosedDay: 10},
		{ID: "CVE-2023-1003", Package: "busybox", Introduced: "1.0", FixedIn: "1.34.0",
			CVSS: 6.5, Description: "awk use-after-free", DisclosedDay: 18},
		{ID: "CVE-2023-1004", Package: "linux-image-onl", Introduced: "4.0", FixedIn: "4.19.300",
			CVSS: 8.4, Exploitable: true, Description: "local privilege escalation in netfilter", DisclosedDay: 5},
		{ID: "CVE-2023-1005", Package: "docker-ce", Introduced: "19.0", FixedIn: "20.10.0",
			CVSS: 9.8, Exploitable: true, Description: "container escape via runc file descriptor leak", DisclosedDay: 8},
		{ID: "CVE-2023-1006", Package: "kubelet", Introduced: "1.20.0", FixedIn: "1.22.0",
			CVSS: 8.8, Description: "node privilege escalation via crafted pod spec", DisclosedDay: 12},
		{ID: "CVE-2023-1007", Package: "onos", Introduced: "2.0.0", FixedIn: "",
			CVSS: 9.1, Description: "REST API authentication bypass (no fix: project dormant)", DisclosedDay: 15},
		{ID: "CVE-2023-1008", Package: "voltha", Introduced: "2.0.0", FixedIn: "2.12.0",
			CVSS: 7.5, Description: "gRPC endpoint DoS", DisclosedDay: 20},
		{ID: "CVE-2023-1009", Package: "proxmox-ve", Introduced: "6.0", FixedIn: "7.4",
			CVSS: 8.1, Description: "API token scope confusion", DisclosedDay: 25},
		{ID: "CVE-2023-1010", Package: "kube-apiserver", Introduced: "1.20.0", FixedIn: "1.21.9",
			CVSS: 7.1, Description: "aggregated API server redirect", DisclosedDay: 9},
		{ID: "CVE-2023-1011", Package: "etcd", Introduced: "3.0.0", FixedIn: "3.5.8",
			CVSS: 6.2, Description: "lease revocation race", DisclosedDay: 30},
		{ID: "CVE-2023-1012", Package: "curl", Introduced: "7.0.0", FixedIn: "7.88.0",
			CVSS: 4.3, Description: "HSTS bypass", DisclosedDay: 22},
	} {
		db.Add(c)
	}
	return db
}
