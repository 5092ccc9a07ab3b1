// Threatcampaign: the end-to-end evaluation. The full T1–T8 adversary
// playbook runs against three platform postures — legacy, detection-only,
// and secure-by-design — reproducing the paper's overall claim that the
// layered mitigations close the identified risks.
package main

import (
	"fmt"
	"log"

	"genio/internal/attack"
	"genio/internal/core"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	postures := []struct {
		name string
		cfg  core.Config
	}{
		{"legacy (no mitigations)", core.LegacyConfig()},
		{"detection-only (Falco)", detectionOnly()},
		{"secure-by-design (M1-M18)", core.SecureConfig()},
	}
	for _, posture := range postures {
		fmt.Printf("=== %s ===\n", posture.name)
		p, err := core.New(posture.cfg)
		if err != nil {
			return fmt.Errorf("platform: %w", err)
		}
		c, err := attack.NewCampaign(p)
		if err != nil {
			p.Close()
			return fmt.Errorf("campaign: %w", err)
		}
		results := c.Run()
		p.Close()
		for _, r := range results {
			fmt.Printf("  %-3s %-42s %-9s %s\n", r.ThreatID, r.Attack, r.Outcome, r.Detail)
		}
		s := attack.Summary(results)
		fmt.Printf("  => blocked=%d detected=%d missed=%d\n\n",
			s[attack.OutcomeBlocked], s[attack.OutcomeDetected], s[attack.OutcomeMissed])
	}
	return nil
}

func detectionOnly() core.Config {
	cfg := core.LegacyConfig()
	cfg.RuntimeMonitoring = true
	return cfg
}
