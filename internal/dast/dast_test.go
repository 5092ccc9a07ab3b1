package dast

import (
	"net/http/httptest"
	"testing"
)

func TestFuzzerFindsPlantedWeaknesses(t *testing.T) {
	srv := httptest.NewServer(VulnerableHandler())
	defer srv.Close()
	rep, err := NewFuzzer().Fuzz(srv.URL, VulnerableSpec())
	if err != nil {
		t.Fatalf("Fuzz: %v", err)
	}
	if rep.RequestsSent == 0 {
		t.Fatal("no requests sent")
	}
	kinds := map[FindingKind]bool{}
	for _, f := range rep.Findings {
		kinds[f.Kind] = true
	}
	if !kinds[FindingServerError] {
		t.Errorf("missing server-error finding; findings = %+v", rep.Findings)
	}
	if !kinds[FindingAuthBypass] {
		t.Errorf("missing auth-bypass finding")
	}
	if !kinds[FindingReflected] {
		t.Errorf("missing reflected-input finding")
	}
}

func TestFuzzerCleanOnFixedBuild(t *testing.T) {
	srv := httptest.NewServer(FixedHandler("secret-token"))
	defer srv.Close()
	f := NewFuzzer()
	f.AuthToken = "secret-token"
	rep, err := f.Fuzz(srv.URL, VulnerableSpec())
	if err != nil {
		t.Fatalf("Fuzz: %v", err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("fixed build still has findings: %+v", rep.Findings)
	}
}

func TestAuthBypassSpecificEndpoint(t *testing.T) {
	srv := httptest.NewServer(VulnerableHandler())
	defer srv.Close()
	rep, err := NewFuzzer().Fuzz(srv.URL, VulnerableSpec())
	if err != nil {
		t.Fatal(err)
	}
	var ok bool
	for _, f := range rep.Findings {
		if f.Kind == FindingAuthBypass && f.Endpoint == "GET /admin" {
			ok = true
		}
	}
	if !ok {
		t.Fatal("auth bypass not attributed to /admin")
	}
}

func TestFixedBuildRejectsWrongToken(t *testing.T) {
	srv := httptest.NewServer(FixedHandler("secret-token"))
	defer srv.Close()
	f := NewFuzzer() // no token configured
	rep, err := f.Fuzz(srv.URL, APISpec{Endpoints: []Endpoint{
		{Method: "GET", Path: "/admin", RequiresAuth: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// No auth-bypass finding: the endpoint properly returns 401.
	if len(rep.Findings) != 0 {
		t.Fatalf("findings = %+v", rep.Findings)
	}
}

func TestFindingsSorted(t *testing.T) {
	srv := httptest.NewServer(VulnerableHandler())
	defer srv.Close()
	rep, err := NewFuzzer().Fuzz(srv.URL, VulnerableSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.Findings); i++ {
		a, b := rep.Findings[i-1], rep.Findings[i]
		if a.Endpoint > b.Endpoint {
			t.Fatal("findings not sorted by endpoint")
		}
	}
}

func TestFindingKindString(t *testing.T) {
	if FindingServerError.String() != "server-error" || FindingKind(9).String() != "finding(9)" {
		t.Fatal("FindingKind.String mismatch")
	}
}
