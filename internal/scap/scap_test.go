package scap

import (
	"testing"

	"genio/internal/host"
)

func TestUnhardenedONLFailsBaseline(t *testing.T) {
	h := host.NewONLOLT("olt-01")
	rep := EvaluateHost(SCAPBaselineProfile(), h)
	_, fail, _, _ := rep.Counts()
	if fail == 0 {
		t.Fatal("fresh ONL host passed the full baseline; fixture or rules broken")
	}
	if rep.Score() >= 1.0 {
		t.Fatalf("Score = %.2f, want < 1.0", rep.Score())
	}
}

func TestHardenedONLPassesBaseline(t *testing.T) {
	h := host.NewONLOLT("olt-01")
	host.HardenONLOLT(h)
	rep := EvaluateHost(SCAPBaselineProfile(), h)
	if fails := rep.Failures(); len(fails) != 0 {
		t.Fatalf("hardened host still fails: %+v", fails)
	}
	if rep.Score() != 1.0 {
		t.Fatalf("Score = %.2f, want 1.0", rep.Score())
	}
}

func TestHardenedONLPassesKernelHardening(t *testing.T) {
	h := host.NewONLOLT("olt-01")
	rep := EvaluateHost(KernelHardeningProfile(), h)
	_, failBefore, _, _ := rep.Counts()
	if failBefore == 0 {
		t.Fatal("permissive kernel config passed hardening checker")
	}
	host.HardenONLOLT(h)
	rep = EvaluateHost(KernelHardeningProfile(), h)
	if fails := rep.Failures(); len(fails) != 0 {
		t.Fatalf("hardened kernel still fails: %+v", fails)
	}
}

func TestSTIGOnONLDegradesToManual(t *testing.T) {
	// Lesson 1: STIGs are authored for mainstream distros; on ONL a chunk
	// of the profile cannot be auto-checked and needs manual adaptation.
	onl := host.NewONLOLT("olt-01")
	ubuntu := host.NewUbuntuServer("u1")

	onlRep := EvaluateHost(STIGProfile(), onl)
	ubuntuRep := EvaluateHost(STIGProfile(), ubuntu)

	_, _, _, onlManual := onlRep.Counts()
	_, _, _, ubuntuManual := ubuntuRep.Counts()
	if onlManual == 0 {
		t.Fatal("STIG on ONL produced no manual-review items; Lesson 1 not reproduced")
	}
	if ubuntuManual >= onlManual {
		t.Fatalf("ubuntu manual items (%d) >= onl (%d); applicability inverted",
			ubuntuManual, onlManual)
	}
}

func TestSeverityOrderingInFailures(t *testing.T) {
	h := host.NewONLOLT("olt-01")
	rep := EvaluateHost(SCAPBaselineProfile(), h)
	fails := rep.Failures()
	for i := 1; i < len(fails); i++ {
		if fails[i].Severity > fails[i-1].Severity {
			t.Fatalf("failures not sorted by severity: %v before %v",
				fails[i-1].Severity, fails[i].Severity)
		}
	}
}

func TestApplicability(t *testing.T) {
	cases := []struct {
		prefixes []string
		platform string
		want     bool
	}{
		{nil, "anything", true},
		{[]string{"ubuntu"}, "ubuntu22.04", true},
		{[]string{"ubuntu"}, "onl-debian10", false},
		{[]string{"ubuntu", "onl"}, "onl-debian10", true},
	}
	for _, c := range cases {
		if got := applies(c.prefixes, c.platform); got != c.want {
			t.Errorf("applies(%v, %q) = %v, want %v", c.prefixes, c.platform, got, c.want)
		}
	}
}

func TestManualFallbackVsNotApplicable(t *testing.T) {
	p := Profile[int]{
		Name: "p",
		Rules: []Rule[int]{
			{ID: "a", AppliesTo: []string{"x"}, ManualFallback: true,
				Check: func(int) (Status, string) { return Pass, "" }},
			{ID: "b", AppliesTo: []string{"x"},
				Check: func(int) (Status, string) { return Pass, "" }},
		},
	}
	rep := p.Evaluate("t", "y", 0)
	if rep.Results[0].Status != Manual {
		t.Fatalf("rule a status = %v, want Manual", rep.Results[0].Status)
	}
	if rep.Results[1].Status != NotApplicable {
		t.Fatalf("rule b status = %v, want NotApplicable", rep.Results[1].Status)
	}
}

func TestScoreAllManual(t *testing.T) {
	p := Profile[int]{Name: "p", Rules: []Rule[int]{
		{ID: "a", AppliesTo: []string{"x"}, ManualFallback: true,
			Check: func(int) (Status, string) { return Pass, "" }},
	}}
	rep := p.Evaluate("t", "y", 0)
	if rep.Score() != 1.0 {
		t.Fatalf("Score with no checkable rules = %v, want 1.0", rep.Score())
	}
}

func TestStatusAndSeverityStrings(t *testing.T) {
	if Pass.String() != "pass" || Status(9).String() != "status(9)" {
		t.Fatal("Status.String mismatch")
	}
	if Critical.String() != "critical" || Severity(9).String() != "severity(9)" {
		t.Fatal("Severity.String mismatch")
	}
}

func TestIterativeHardeningConverges(t *testing.T) {
	// Models the Lesson-1 loop: evaluate, remediate, re-evaluate.
	h := host.NewONLOLT("olt-01")
	profiles := []HostProfile{SCAPBaselineProfile(), KernelHardeningProfile()}
	iterations := 0
	for ; iterations < 5; iterations++ {
		failing := 0
		for _, p := range profiles {
			_, f, _, _ := EvaluateHost(p, h).Counts()
			failing += f
		}
		if failing == 0 {
			break
		}
		host.HardenONLOLT(h)
	}
	if iterations == 0 || iterations >= 5 {
		t.Fatalf("hardening converged in %d iterations, want 1..4", iterations)
	}
}

// BenchmarkSCAPEvaluate: per-operation cost behind Lesson 1 (hardening).
func BenchmarkSCAPEvaluate(b *testing.B) {
	h := host.NewONLOLT("olt-bench")
	profile := SCAPBaselineProfile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EvaluateHost(profile, h)
	}
}

// BenchmarkKernelHardeningCheck: per-operation cost behind Lesson 1 (hardening).
func BenchmarkKernelHardeningCheck(b *testing.B) {
	h := host.NewONLOLT("olt-bench")
	host.HardenONLOLT(h)
	profile := KernelHardeningProfile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EvaluateHost(profile, h)
	}
}
