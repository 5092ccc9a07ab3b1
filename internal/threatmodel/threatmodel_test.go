package threatmodel

import (
	"strings"
	"testing"
)

func TestGENIOModelValid(t *testing.T) {
	if err := GENIOModel().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGENIOModelShape(t *testing.T) {
	m := GENIOModel()
	if len(m.Threats) != 8 {
		t.Fatalf("threats = %d, want 8 (T1..T8)", len(m.Threats))
	}
	if len(m.Mitigations) != 18 {
		t.Fatalf("mitigations = %d, want 18 (M1..M18)", len(m.Mitigations))
	}
}

func TestEveryThreatCovered(t *testing.T) {
	if un := GENIOModel().Uncovered(); len(un) != 0 {
		t.Fatalf("uncovered threats: %v", un)
	}
}

func TestPaperCoverageMapping(t *testing.T) {
	cov := GENIOModel().Coverage()
	want := map[string][]string{
		"T1": {"M3", "M4"},
		"T2": {"M5", "M6", "M7", "M9"},
		"T3": {"M1", "M2"},
		"T4": {"M8", "M9"},
		"T5": {"M10", "M11"},
		"T6": {"M12"},
		"T7": {"M13", "M14", "M15"},
		"T8": {"M16", "M17", "M18"},
	}
	for tid, wantMits := range want {
		got := cov[tid]
		if len(got) != len(wantMits) {
			t.Errorf("%s coverage = %v, want %v", tid, got, wantMits)
			continue
		}
		for i := range wantMits {
			if got[i] != wantMits[i] {
				t.Errorf("%s coverage = %v, want %v", tid, got, wantMits)
				break
			}
		}
	}
}

func TestLayerAssignments(t *testing.T) {
	m := GENIOModel()
	layers := map[string]Layer{
		"T1": LayerInfrastructure, "T4": LayerInfrastructure,
		"T5": LayerMiddleware, "T6": LayerMiddleware,
		"T7": LayerApplication, "T8": LayerApplication,
	}
	got := map[string]Layer{}
	for _, th := range m.Threats {
		got[th.ID] = th.Layer
	}
	for tid, want := range layers {
		if layer, ok := got[tid]; !ok || layer != want {
			t.Errorf("%s layer = %v, want %v", tid, layer, want)
		}
	}
}

func TestEveryMitigationHasModule(t *testing.T) {
	for _, mit := range GENIOModel().Mitigations {
		if mit.Module == "" {
			t.Errorf("%s has no implementing module", mit.ID)
		}
		if len(mit.Tools) == 0 {
			t.Errorf("%s names no tools", mit.ID)
		}
	}
}

func TestValidateCatchesBrokenModels(t *testing.T) {
	dup := &Model{Threats: []Threat{{ID: "T1"}, {ID: "T1"}}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate threat accepted")
	}
	dangling := &Model{
		Threats:     []Threat{{ID: "T1"}},
		Mitigations: []Mitigation{{ID: "M1", Mitigates: []string{"T9"}}},
	}
	if err := dangling.Validate(); err == nil {
		t.Fatal("dangling reference accepted")
	}
	useless := &Model{
		Threats:     []Threat{{ID: "T1"}},
		Mitigations: []Mitigation{{ID: "M1"}},
	}
	if err := useless.Validate(); err == nil {
		t.Fatal("mitigation without targets accepted")
	}
	dupMit := &Model{
		Threats: []Threat{{ID: "T1"}},
		Mitigations: []Mitigation{
			{ID: "M1", Mitigates: []string{"T1"}},
			{ID: "M1", Mitigates: []string{"T1"}},
		},
	}
	if err := dupMit.Validate(); err == nil {
		t.Fatal("duplicate mitigation accepted")
	}
}

func TestUncoveredDetection(t *testing.T) {
	m := &Model{
		Threats:     []Threat{{ID: "T1"}, {ID: "T2"}},
		Mitigations: []Mitigation{{ID: "M1", Mitigates: []string{"T1"}}},
	}
	un := m.Uncovered()
	if len(un) != 1 || un[0] != "T2" {
		t.Fatalf("Uncovered = %v", un)
	}
}

func TestMatrixRendering(t *testing.T) {
	out := GENIOModel().RenderMatrix()
	for _, needle := range []string{"T1", "T8", "MACsec", "Falco", "infrastructure", "application", "M17"} {
		if !strings.Contains(out, needle) {
			t.Errorf("matrix missing %q", needle)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 9 { // header + 8 threats
		t.Fatalf("matrix lines = %d, want 9", lines)
	}
}

func TestMatrixToolUnion(t *testing.T) {
	rows := GENIOModel().Matrix()
	var t2 MatrixRow
	for _, r := range rows {
		if r.ThreatID == "T2" {
			t2 = r
		}
	}
	// T2 is covered by M5, M6, M7, M9: tools must include the union.
	tools := strings.Join(t2.Tools, ",")
	for _, tool := range []string{"Shim", "LUKS", "Tripwire", "ONIE"} {
		if !strings.Contains(tools, tool) {
			t.Errorf("T2 tools missing %s: %v", tool, t2.Tools)
		}
	}
	// TPM appears in M5, M6, M9 but must be deduplicated.
	count := 0
	for _, tool := range t2.Tools {
		if tool == "TPM" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("TPM deduplication failed: %v", t2.Tools)
	}
}

func TestStringers(t *testing.T) {
	if LayerMiddleware.String() != "middleware" || Layer(9).String() != "layer(9)" {
		t.Fatal("Layer.String mismatch")
	}
	if Spoofing.String() != "spoofing" || Category(99).String() != "category(99)" {
		t.Fatal("Category.String mismatch")
	}
}

// BenchmarkThreatModelMatrix: per-operation cost behind Figure 3.
func BenchmarkThreatModelMatrix(b *testing.B) {
	m := GENIOModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(m.Matrix()) != 8 {
			b.Fatal("bad matrix")
		}
	}
}

func TestFacadeThreatModel(t *testing.T) {
	m := GENIOModel()
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(m.Threats) != 8 || len(m.Mitigations) != 18 {
		t.Fatalf("model shape = %d/%d", len(m.Threats), len(m.Mitigations))
	}
}
