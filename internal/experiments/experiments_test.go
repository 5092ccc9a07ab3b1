package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"fig1", "fig2", "fig3",
		"lesson1", "lesson2", "lesson3", "lesson4",
		"lesson5", "lesson6", "lesson7", "lesson8", "e2e", "ablation", "risk", "compliance"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig3"); !ok {
		t.Fatal("ByID(fig3) not found")
	}
	if _, ok := ByID("ghost"); ok {
		t.Fatal("ByID(ghost) found")
	}
}

// TestAllExperimentsRun executes every experiment and sanity-checks that
// each produces the key phenomenon its Lesson reports.
func TestAllExperimentsRun(t *testing.T) {
	checks := map[string][]string{
		"fig1":       {"CLOUD", "EDGE", "FAR-EDGE", "olt-01", "onu-0001"},
		"fig2":       {"INFRASTRUCTURE", "MIDDLEWARE", "APPLICATION", "MACsec", "Falco"},
		"fig3":       {"T1", "T8", "M18", "All modelled threats"},
		"lesson1":    {"manual", "iteration", "onl-debian10", "ubuntu22.04"},
		"lesson2":    {"MACsec", "overhead factor", "certificates issued"},
		"lesson3":    {"manual passphrase entries", "untuned", "tuned"},
		"lesson4":    {"blind spot closed", "REJECTED", "accepted", "ONIE"},
		"lesson5":    {"SDN allowlist", "0 disrupted", "union"},
		"lesson6":    {"never visible", "kubernetes-official-cve", "nvd-api", "manual review"},
		"lesson7":    {"noise-filtered", "actionable", "fuzzable images (expose REST/OpenAPI): 2 of 3", "findings"},
		"lesson8":    {"untuned FPs", "tuned FPs", "detected=4/4", "events/s"},
		"e2e":        {"legacy", "secure-by-design", "missed=0", "blocked="},
		"ablation":   {"baseline secure posture", "reopened", "defense in depth"},
		"risk":       {"inherent", "residual", "reduction", "partial rollout"},
		"compliance": {"10/10 satisfied", "MISSING", "legacy", "secure-by-design"},
	}
	for _, e := range All() {
		out, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(out) == 0 {
			t.Fatalf("%s produced no output", e.ID)
		}
		for _, needle := range checks[e.ID] {
			if !strings.Contains(out, needle) {
				t.Errorf("%s output missing %q\n--- output ---\n%s", e.ID, needle, out)
			}
		}
	}
}

func TestE2EShape(t *testing.T) {
	out, err := EndToEnd()
	if err != nil {
		t.Fatal(err)
	}
	// Legacy must miss strictly more than secure; parse the summary lines.
	var missedPerPosture []int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "blocked=") {
			var blocked, detected, missed, total int
			if _, err := fmt.Sscanf(line, "blocked=%d detected=%d missed=%d (of %d attacks)",
				&blocked, &detected, &missed, &total); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			missedPerPosture = append(missedPerPosture, missed)
		}
	}
	if len(missedPerPosture) != 3 {
		t.Fatalf("postures = %d, want 3", len(missedPerPosture))
	}
	if missedPerPosture[0] == 0 {
		t.Fatal("legacy posture missed nothing")
	}
	if last := missedPerPosture[len(missedPerPosture)-1]; last != 0 {
		t.Fatalf("secure posture missed %d", last)
	}
}

// TestAblationDeterministic: the ablation report is a pure function of
// the code — two runs print the same bytes, and every reopened list is
// sorted rather than in map order.
func TestAblationDeterministic(t *testing.T) {
	first, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	second, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("two ablation runs differ:\n%s\n---\n%s", first, second)
	}
	for _, line := range strings.Split(first, "\n") {
		if _, list, ok := strings.Cut(line, "reopened: "); ok {
			if attacks := strings.Split(list, "; "); !slices.IsSorted(attacks) {
				t.Fatalf("reopened list not sorted: %q", list)
			}
		}
	}
}
