package attack

import (
	"testing"

	"genio/internal/core"
)

func runCampaign(t *testing.T, cfg core.Config) []Result {
	t.Helper()
	p, err := core.New(cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	c, err := NewCampaign(p)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	return c.Run()
}

func TestSecurePlatformStopsEverything(t *testing.T) {
	results := runCampaign(t, core.SecureConfig())
	for _, r := range results {
		if r.Outcome == OutcomeMissed {
			t.Errorf("secure platform missed %s (%s): %s", r.ThreatID, r.Attack, r.Detail)
		}
	}
	s := Summary(results)
	if s[OutcomeBlocked] == 0 {
		t.Fatal("secure platform blocked nothing")
	}
}

func TestLegacyPlatformMissesMost(t *testing.T) {
	results := runCampaign(t, core.LegacyConfig())
	s := Summary(results)
	if s[OutcomeMissed] == 0 {
		t.Fatal("legacy platform missed nothing; attack scripts broken")
	}
	// The paper's direction: legacy misses strictly more than secure.
	secure := Summary(runCampaign(t, core.SecureConfig()))
	if s[OutcomeMissed] <= secure[OutcomeMissed] {
		t.Fatalf("legacy missed %d, secure missed %d", s[OutcomeMissed], secure[OutcomeMissed])
	}
}

func TestEveryThreatExercised(t *testing.T) {
	results := runCampaign(t, core.SecureConfig())
	covered := map[string]bool{}
	for _, r := range results {
		covered[r.ThreatID] = true
	}
	for _, tid := range []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"} {
		if !covered[tid] {
			t.Errorf("campaign never exercised %s", tid)
		}
	}
}

func TestResultsCarryDetail(t *testing.T) {
	for _, r := range runCampaign(t, core.SecureConfig()) {
		if r.Detail == "" || r.Attack == "" {
			t.Errorf("result without detail: %+v", r)
		}
	}
}

func TestDetectionOnlyPostureDetectsButDoesNotBlockRuntime(t *testing.T) {
	cfg := core.LegacyConfig()
	cfg.RuntimeMonitoring = true
	results := runCampaign(t, cfg)
	var t7 Result
	for _, r := range results {
		if r.ThreatID == "T7" {
			t7 = r
		}
	}
	if t7.Outcome != OutcomeDetected {
		t.Fatalf("T7 with falco-only = %v (%s), want detected", t7.Outcome, t7.Detail)
	}
}

func TestSandboxBlocksWhereFalcoOnlyDetects(t *testing.T) {
	cfg := core.LegacyConfig()
	cfg.RuntimeMonitoring = true
	cfg.SandboxEnabled = true
	results := runCampaign(t, cfg)
	var t7 Result
	for _, r := range results {
		if r.ThreatID == "T7" {
			t7 = r
		}
	}
	if t7.Outcome != OutcomeBlocked {
		t.Fatalf("T7 with sandbox = %v (%s), want blocked", t7.Outcome, t7.Detail)
	}
}

func TestQuotaAloneStopsResourceAbuse(t *testing.T) {
	cfg := core.LegacyConfig()
	cfg.TenantQuotas = true
	results := runCampaign(t, cfg)
	for _, r := range results {
		if r.Attack == "tenant resource monopolization" && r.Outcome != OutcomeBlocked {
			t.Fatalf("quota config outcome = %v (%s)", r.Outcome, r.Detail)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeBlocked.String() != "blocked" || Outcome(9).String() != "outcome(9)" {
		t.Fatal("Outcome.String mismatch")
	}
}

func TestSummaryTotals(t *testing.T) {
	results := runCampaign(t, core.SecureConfig())
	s := Summary(results)
	total := s[OutcomeBlocked] + s[OutcomeDetected] + s[OutcomeMissed]
	if total != len(results) {
		t.Fatalf("summary total %d != results %d", total, len(results))
	}
}

func BenchmarkFullCampaignSecure(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := core.New(core.SecureConfig())
		if err != nil {
			b.Fatal(err)
		}
		c, err := NewCampaign(p)
		if err != nil {
			b.Fatal(err)
		}
		results := c.Run()
		if Summary(results)[OutcomeMissed] != 0 {
			b.Fatal("secure platform missed an attack")
		}
		p.Close()
	}
}

func TestFacadeCampaign(t *testing.T) {
	p, err := core.New(core.SecureConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := NewCampaign(p)
	if err != nil {
		t.Fatal(err)
	}
	results := c.Run()
	summary := Summary(results)
	if summary[OutcomeMissed] != 0 {
		t.Fatalf("secure platform missed attacks: %+v", results)
	}
}
