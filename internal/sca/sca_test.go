package sca

import (
	"testing"

	"genio/internal/container"
	"genio/internal/vuln"
)

func TestScanFindsKnownVulns(t *testing.T) {
	s := NewScanner(DependencyDatabase())
	rep := s.Scan(container.IoTGatewayImage())
	if rep.DependenciesScanned != 5 {
		t.Fatalf("DependenciesScanned = %d, want 5", rep.DependenciesScanned)
	}
	ids := map[string]bool{}
	for _, f := range rep.Findings {
		ids[f.CVE.ID] = true
	}
	for _, want := range []string{"CVE-2018-2001", "CVE-2018-2002", "CVE-2017-2003", "CVE-2019-2004", "CVE-2020-2006"} {
		if !ids[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestFindingsSortedByCVSS(t *testing.T) {
	s := NewScanner(DependencyDatabase())
	rep := s.Scan(container.IoTGatewayImage())
	for i := 1; i < len(rep.Findings); i++ {
		if rep.Findings[i].CVE.CVSS > rep.Findings[i-1].CVE.CVSS {
			t.Fatal("findings not sorted by CVSS")
		}
	}
}

func TestReachabilityFilterShrinksReport(t *testing.T) {
	// Lesson 7: plain SCA flags unreachable dependencies; the filter trims
	// them without dropping reachable ones.
	s := NewScanner(DependencyDatabase())
	full := s.Scan(container.IoTGatewayImage())
	filtered := full.ReachableOnly()
	if len(filtered.Findings) >= len(full.Findings) {
		t.Fatalf("filter did not shrink report: %d -> %d", len(full.Findings), len(filtered.Findings))
	}
	for _, f := range filtered.Findings {
		if !f.Dependency.Reachable {
			t.Fatalf("unreachable finding survived filter: %+v", f.Dependency)
		}
	}
	// The pyyaml RCE (critical but unreachable) is exactly the noise case.
	for _, f := range filtered.Findings {
		if f.CVE.ID == "CVE-2017-2003" {
			t.Fatal("unreachable pyyaml finding not filtered")
		}
	}
	// The reachable flask RCE must survive.
	var hasFlask bool
	for _, f := range filtered.Findings {
		if f.CVE.ID == "CVE-2018-2001" {
			hasFlask = true
		}
	}
	if !hasFlask {
		t.Fatal("reachable flask finding dropped by filter")
	}
}

func TestCleanImageNoFindings(t *testing.T) {
	s := NewScanner(DependencyDatabase())
	rep := s.Scan(container.AnalyticsImage())
	if len(rep.Findings) != 0 {
		t.Fatalf("analytics image findings = %+v", rep.Findings)
	}
}

func TestMLImageLog4Shell(t *testing.T) {
	s := NewScanner(DependencyDatabase())
	rep := s.Scan(container.MLInferenceImage())
	var found bool
	for _, f := range rep.Findings {
		if f.CVE.ID == "CVE-2021-44228" {
			found = true
			if f.CVE.Severity() != vuln.SeverityCritical {
				t.Fatal("log4shell not critical")
			}
		}
	}
	if !found {
		t.Fatal("log4shell missed")
	}
}

func TestCountBySeverity(t *testing.T) {
	s := NewScanner(DependencyDatabase())
	rep := s.Scan(container.IoTGatewayImage())
	critical := 0
	for _, f := range rep.Findings {
		if f.CVE.Severity() == vuln.SeverityCritical {
			critical++
		}
	}
	if critical == 0 {
		t.Fatalf("findings = %+v, want a critical (pyyaml)", rep.Findings)
	}
}
