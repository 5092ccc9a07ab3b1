package experiments

import (
	"fmt"
	"sort"
	"strings"

	"genio/internal/attack"
	"genio/internal/core"
	"genio/internal/pon"
)

// Ablation measures each mitigation's individual contribution: starting
// from the full secure posture, one mitigation is disabled at a time and
// the T1–T8 campaign re-run. The attacks that flip from blocked/detected
// to missed are exactly the risks the paper's threat model attributes to
// that mitigation — a direct check of the Figure-3 mapping.
func Ablation() (string, error) {
	var b strings.Builder
	b.WriteString("Ablation: disable one mitigation at a time from the secure posture\n")
	b.WriteString("and observe which attacks reopen (validates the Figure-3 mapping)\n\n")

	baseline, err := campaignOutcomes(core.SecureConfig())
	if err != nil {
		return "", err
	}
	bs := attack.Summary(flatten(baseline))
	fmt.Fprintf(&b, "baseline secure posture: blocked=%d detected=%d missed=%d\n\n",
		bs[attack.OutcomeBlocked], bs[attack.OutcomeDetected], bs[attack.OutcomeMissed])

	ablations := []struct {
		name    string
		related string // mitigation IDs per the threat model
		mutate  func(*core.Config)
	}{
		{"PON encryption+auth off", "M3,M4", func(c *core.Config) { c.PONMode = pon.ModePlaintext }},
		{"OS hardening off", "M1,M2", func(c *core.Config) { c.HardenOS = false }},
		{"FIM off", "M7", func(c *core.Config) { c.FIMEnabled = false }},
		{"vuln management off", "M8,M12", func(c *core.Config) { c.VulnManagement = false }},
		{"RBAC off", "M10", func(c *core.Config) {
			c.RBACEnabled = false
			c.ClusterSettings.RBACEnabled = false
		}},
		{"image signatures off", "supply chain", func(c *core.Config) { c.VerifyImageSignatures = false }},
		{"admission scanning off", "M13,M16", func(c *core.Config) { c.AdmissionScanning = false }},
		{"sandbox off", "M17", func(c *core.Config) { c.SandboxEnabled = false }},
		{"runtime monitoring off", "M18", func(c *core.Config) { c.RuntimeMonitoring = false }},
		{"tenant quotas off", "T8 counter", func(c *core.Config) { c.TenantQuotas = false }},
	}

	for _, abl := range ablations {
		cfg := core.SecureConfig()
		abl.mutate(&cfg)
		outcomes, err := campaignOutcomes(cfg)
		if err != nil {
			return "", err
		}
		var regressions []string
		for key, r := range outcomes {
			base := baseline[key]
			if r.Outcome == attack.OutcomeMissed && base.Outcome != attack.OutcomeMissed {
				regressions = append(regressions, fmt.Sprintf("%s %s", r.ThreatID, r.Attack))
			}
		}
		sort.Strings(regressions) // outcomes is a map: fix the print order
		s := attack.Summary(flatten(outcomes))
		fmt.Fprintf(&b, "- %-26s (%s): missed=%d", abl.name, abl.related, s[attack.OutcomeMissed])
		if len(regressions) == 0 {
			b.WriteString("  [no attack reopened: another layer covers it — defense in depth]\n")
		} else {
			fmt.Fprintf(&b, "  reopened: %s\n", strings.Join(regressions, "; "))
		}
	}
	b.WriteString("\nReading: a mitigation whose removal reopens an attack is the *sole*\n")
	b.WriteString("cover for that risk; mitigations with no regressions overlap with other\n")
	b.WriteString("layers (e.g. admission scanning backs up signature verification).\n")
	return b.String(), nil
}

// campaignOutcomes runs the campaign once, keyed by threat+attack name.
func campaignOutcomes(cfg core.Config) (map[string]attack.Result, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	c, err := attack.NewCampaign(p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]attack.Result)
	for _, r := range c.Run() {
		out[r.ThreatID+"/"+r.Attack] = r
	}
	return out, nil
}

func flatten(m map[string]attack.Result) []attack.Result {
	out := make([]attack.Result, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	return out
}
