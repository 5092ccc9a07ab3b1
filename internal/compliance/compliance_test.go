package compliance

import (
	"strings"
	"testing"

	"genio/internal/core"
	"genio/internal/threatmodel"
)

func TestSecureConfigSatisfiesAll(t *testing.T) {
	rep := Audit(core.SecureConfig())
	for _, st := range rep.Statuses {
		if !st.Satisfied {
			t.Errorf("secure config misses %s", st.Requirement.ID)
		}
	}
	if rep.Satisfied() != len(CRARequirements()) {
		t.Fatalf("Satisfied = %d, want %d", rep.Satisfied(), len(CRARequirements()))
	}
}

func TestLegacyConfigFailsMost(t *testing.T) {
	rep := Audit(core.LegacyConfig())
	if rep.Satisfied() != 0 {
		t.Fatalf("legacy config satisfies %d requirements; audit too lax", rep.Satisfied())
	}
}

func TestPartialConfigPartialCompliance(t *testing.T) {
	cfg := core.LegacyConfig()
	cfg.VulnManagement = true // CRA-1 only
	rep := Audit(cfg)
	if rep.Satisfied() != 1 {
		t.Fatalf("Satisfied = %d, want 1", rep.Satisfied())
	}
	var cra1 bool
	for _, s := range rep.Statuses {
		if s.Requirement.ID == "CRA-1" && s.Satisfied {
			cra1 = true
		}
	}
	if !cra1 {
		t.Fatal("CRA-1 not satisfied by vuln management")
	}
}

func TestRequirementsReferenceRealMitigations(t *testing.T) {
	model := threatmodel.GENIOModel()
	for _, r := range CRARequirements() {
		if len(r.Mitigations) == 0 {
			t.Errorf("%s lists no mitigations", r.ID)
		}
		for _, mid := range r.Mitigations {
			if _, ok := model.MitigationByID(mid); !ok {
				t.Errorf("%s references unknown mitigation %s", r.ID, mid)
			}
		}
		if r.Check == nil {
			t.Errorf("%s has no check", r.ID)
		}
	}
}

func TestRenderReport(t *testing.T) {
	out := Audit(core.SecureConfig()).Render()
	if !strings.Contains(out, "10/10 satisfied") {
		t.Fatalf("render = %s", out)
	}
	out = Audit(core.LegacyConfig()).Render()
	if !strings.Contains(out, "MISSING") {
		t.Fatal("legacy render shows no gaps")
	}
}

func TestEncryptionRequirementNeedsBothLayers(t *testing.T) {
	cfg := core.SecureConfig()
	cfg.SealedStorage = false // at-rest gap
	rep := Audit(cfg)
	for _, s := range rep.Statuses {
		if s.Requirement.ID == "CRA-4" && s.Satisfied {
			t.Fatal("CRA-4 satisfied without storage encryption")
		}
	}
}
