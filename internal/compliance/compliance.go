// Package compliance maps the GENIO mitigations onto the regulatory
// drivers the paper names — the European Cyber Resilience Act (CRA) and CE
// marking — and audits a live platform configuration against them.
//
// The paper: "One of the main objectives of the GENIO project is to align
// the platform with security regulations, such as the European Cyber
// Resilience Act and CE marking certification. This objective shaped the
// platform by guiding threat mitigations." This package makes that shaping
// explicit: each CRA essential requirement lists the platform controls that
// satisfy it, and Audit reports which requirements a given core.Config
// actually meets.
package compliance

import (
	"fmt"
	"strings"

	"genio/internal/core"
	"genio/internal/pon"
)

// Requirement is one essential cybersecurity requirement, patterned on
// CRA Annex I.
type Requirement struct {
	ID          string `json:"id"`
	Description string `json:"description"`
	// Mitigations are the M-IDs that together satisfy the requirement.
	Mitigations []string `json:"mitigations"`
	// Check inspects the live configuration.
	Check func(cfg core.Config) bool `json:"-"`
}

// Status of one requirement in an audit.
type Status struct {
	Requirement Requirement `json:"requirement"`
	Satisfied   bool        `json:"satisfied"`
}

// Report is a full audit outcome.
type Report struct {
	Statuses []Status `json:"statuses"`
}

// Satisfied counts met requirements.
func (r *Report) Satisfied() int {
	n := 0
	for _, s := range r.Statuses {
		if s.Satisfied {
			n++
		}
	}
	return n
}

// Render formats the report.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CRA essential-requirement audit: %d/%d satisfied\n\n",
		r.Satisfied(), len(r.Statuses))
	for _, s := range r.Statuses {
		mark := "MISSING"
		if s.Satisfied {
			mark = "ok"
		}
		fmt.Fprintf(&b, "  [%-7s] %-8s %s (via %s)\n", mark, s.Requirement.ID,
			s.Requirement.Description, strings.Join(s.Requirement.Mitigations, ","))
	}
	return b.String()
}

// CRARequirements returns the CRA Annex-I-style catalogue as the GENIO
// project interpreted it for a PON edge platform.
func CRARequirements() []Requirement {
	return []Requirement{
		{
			ID:          "CRA-1",
			Description: "Products made available without known exploitable vulnerabilities",
			Mitigations: []string{"M8", "M12"},
			Check:       func(c core.Config) bool { return c.VulnManagement },
		},
		{
			ID:          "CRA-2",
			Description: "Secure by default configuration",
			Mitigations: []string{"M1", "M2", "M11"},
			Check: func(c core.Config) bool {
				return c.HardenOS && c.ClusterSettings.RBACEnabled && !c.ClusterSettings.AnonymousAuth
			},
		},
		{
			ID:          "CRA-3",
			Description: "Protection from unauthorised access (authentication, identity management)",
			Mitigations: []string{"M4", "M10"},
			Check: func(c core.Config) bool {
				return c.PONMode == pon.ModeAuthenticated && c.RBACEnabled
			},
		},
		{
			ID:          "CRA-4",
			Description: "Confidentiality of stored and transmitted data (encryption at rest and in transit)",
			Mitigations: []string{"M3", "M6"},
			Check: func(c core.Config) bool {
				return c.PONMode != pon.ModePlaintext && c.SealedStorage &&
					c.ClusterSettings.TLSOnAPIServer && c.ClusterSettings.EtcdEncryption
			},
		},
		{
			ID:          "CRA-5",
			Description: "Integrity of software, firmware and configuration (tamper protection)",
			Mitigations: []string{"M5", "M7", "M9"},
			Check: func(c core.Config) bool {
				return c.SecureBoot && c.FIMEnabled
			},
		},
		{
			ID:          "CRA-6",
			Description: "Secure updates with integrity verification",
			Mitigations: []string{"M9"},
			Check:       func(c core.Config) bool { return c.VerifyImageSignatures },
		},
		{
			ID:          "CRA-7",
			Description: "Minimised attack surfaces, including external interfaces",
			Mitigations: []string{"M1", "M10", "M11"},
			Check: func(c core.Config) bool {
				return c.HardenOS && !c.ClusterSettings.AllowPrivileged
			},
		},
		{
			ID:          "CRA-8",
			Description: "Protection of availability of essential functions (resilience to DoS)",
			Mitigations: []string{"M17"},
			Check:       func(c core.Config) bool { return c.TenantQuotas },
		},
		{
			ID:          "CRA-9",
			Description: "Security-relevant event recording and monitoring",
			Mitigations: []string{"M7", "M18"},
			Check: func(c core.Config) bool {
				return c.RuntimeMonitoring && c.ClusterSettings.AuditLoggingEnabled
			},
		},
		{
			ID:          "CRA-10",
			Description: "Limitation and isolation of incident impact (sandboxing, segmentation)",
			Mitigations: []string{"M17"},
			Check: func(c core.Config) bool {
				return c.SandboxEnabled && c.ClusterSettings.NetworkPoliciesOn
			},
		},
	}
}

// Audit evaluates the configuration against every requirement.
func Audit(cfg core.Config) *Report {
	reqs := CRARequirements()
	rep := &Report{Statuses: make([]Status, 0, len(reqs))}
	for _, r := range reqs {
		rep.Statuses = append(rep.Statuses, Status{Requirement: r, Satisfied: r.Check(cfg)})
	}
	return rep
}
