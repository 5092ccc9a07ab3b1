// Package sca implements Software Composition Analysis for container
// images (M13): it extracts the dependency manifest, matches versions
// against a CVE database, and reports vulnerable components.
//
// Lesson 7 is reproduced structurally: plain SCA flags every vulnerable
// dependency in the image — including ones the application never calls —
// bloating reports and complicating prioritization. The scanner therefore
// supports a reachability filter; experiments compare report sizes with and
// without it.
package sca

import (
	"context"
	"sort"

	"genio/internal/container"
	"genio/internal/vuln"
)

// Finding is one vulnerable dependency in an image.
type Finding struct {
	CVE        vuln.CVE             `json:"cve"`
	Dependency container.Dependency `json:"dependency"`
	ImageRef   string               `json:"imageRef"`
}

// Report is the outcome of scanning one image.
type Report struct {
	ImageRef string    `json:"imageRef"`
	Findings []Finding `json:"findings"`
	// DependenciesScanned counts manifest entries inspected.
	DependenciesScanned int `json:"dependenciesScanned"`
}

// ReachableOnly filters the report to findings in dependencies the
// application actually exercises — the Lesson-7 noise reduction.
func (r *Report) ReachableOnly() *Report {
	out := &Report{ImageRef: r.ImageRef, DependenciesScanned: r.DependenciesScanned}
	for _, f := range r.Findings {
		if f.Dependency.Reachable {
			out.Findings = append(out.Findings, f)
		}
	}
	return out
}

// Scanner matches image manifests against a CVE database.
type Scanner struct {
	DB *vuln.Database
}

// NewScanner creates a scanner over db.
func NewScanner(db *vuln.Database) *Scanner {
	return &Scanner{DB: db}
}

// Scan inspects every dependency in the image manifest.
func (s *Scanner) Scan(img *container.Image) *Report {
	rep, _ := s.ScanContext(context.Background(), img)
	return rep
}

// ScanContext is Scan with cancellation: the context is polled between
// dependencies, and a done context abandons the scan, returning the
// context error with a nil report.
func (s *Scanner) ScanContext(ctx context.Context, img *container.Image) (*Report, error) {
	rep := &Report{ImageRef: img.Ref()}
	for _, dep := range img.Dependencies {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep.DependenciesScanned++
		for _, c := range s.DB.Match(dep.Name, dep.Version) {
			rep.Findings = append(rep.Findings, Finding{CVE: c, Dependency: dep, ImageRef: img.Ref()})
		}
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].CVE.CVSS > rep.Findings[j].CVE.CVSS
	})
	return rep, nil
}

// DependencyDatabase returns the CVE dataset for application-level
// dependencies used by the fixture images. Records are synthetic but
// patterned on the well-known advisories for those version lines.
func DependencyDatabase() *vuln.Database {
	db := vuln.NewDatabase()
	for _, c := range []vuln.CVE{
		{ID: "CVE-2018-2001", Package: "flask", Introduced: "0.1", FixedIn: "1.0",
			CVSS: 7.5, Description: "debug mode RCE via werkzeug console", DisclosedDay: 2},
		{ID: "CVE-2018-2002", Package: "requests", Introduced: "2.0", FixedIn: "2.20.0",
			CVSS: 6.1, Description: "credential leak on redirect", DisclosedDay: 4},
		{ID: "CVE-2017-2003", Package: "pyyaml", Introduced: "3.0", FixedIn: "5.1",
			CVSS: 9.8, Exploitable: true, Description: "yaml.load arbitrary code execution", DisclosedDay: 1},
		{ID: "CVE-2019-2004", Package: "urllib3", Introduced: "1.0", FixedIn: "1.24.2",
			CVSS: 5.9, Description: "CRLF injection in request parameter", DisclosedDay: 6},
		{ID: "CVE-2021-44228", Package: "log4j-core", Introduced: "2.0", FixedIn: "2.15.0",
			CVSS: 10.0, Exploitable: true, Description: "JNDI lookup remote code execution", DisclosedDay: 3},
		{ID: "CVE-2022-2005", Package: "commons-text", Introduced: "1.5", FixedIn: "1.10.0",
			CVSS: 9.8, Description: "string interpolation RCE", DisclosedDay: 7},
		{ID: "CVE-2020-2006", Package: "left-unused", Introduced: "0.1", FixedIn: "",
			CVSS: 8.1, Description: "prototype pollution in helper", DisclosedDay: 5},
	} {
		db.Add(c)
	}
	return db
}
