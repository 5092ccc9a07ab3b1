// Package dast implements dynamic application security testing (M15): a
// REST API fuzzer in the role of CATS that drives real HTTP servers from an
// OpenAPI-like endpoint description with malformed, unexpected, and
// malicious inputs.
//
// Unlike the static scanners, the fuzzer exercises live code: in tests and
// experiments the targets are real net/http servers.
package dast

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"
)

// Param describes one endpoint parameter.
type Param struct {
	Name     string `json:"name"`
	Type     string `json:"type"` // "string" | "int"
	Required bool   `json:"required"`
}

// Endpoint describes one REST operation.
type Endpoint struct {
	Method       string  `json:"method"`
	Path         string  `json:"path"`
	Params       []Param `json:"params"`
	RequiresAuth bool    `json:"requiresAuth"`
}

// APISpec is the OpenAPI-like surface description the fuzzer consumes.
type APISpec struct {
	Endpoints []Endpoint `json:"endpoints"`
}

// FindingKind classifies fuzzer findings.
type FindingKind int

// Finding kinds.
const (
	// FindingServerError is a 5xx on malformed input (insecure input
	// handling).
	FindingServerError FindingKind = iota + 1
	// FindingAuthBypass is a 2xx on an auth-required endpoint without
	// credentials (improper authentication enforcement).
	FindingAuthBypass
	// FindingReflected is attacker-controlled input echoed verbatim
	// (XSS-style reflection).
	FindingReflected
)

var findingNames = map[FindingKind]string{
	FindingServerError: "server-error",
	FindingAuthBypass:  "auth-bypass",
	FindingReflected:   "reflected-input",
}

// String names the kind.
func (k FindingKind) String() string {
	if n, ok := findingNames[k]; ok {
		return n
	}
	return fmt.Sprintf("finding(%d)", int(k))
}

// Finding is one fuzzer discovery.
type Finding struct {
	Kind     FindingKind `json:"kind"`
	Endpoint string      `json:"endpoint"`
	Payload  string      `json:"payload"`
	Status   int         `json:"status"`
}

// Report aggregates one fuzzing run.
type Report struct {
	Target       string    `json:"target"`
	RequestsSent int       `json:"requestsSent"`
	Findings     []Finding `json:"findings"`
}

// Fuzzer drives HTTP targets with hostile inputs.
type Fuzzer struct {
	Client *http.Client
	// AuthToken, when set, is used for the authenticated baseline request.
	AuthToken string
}

// NewFuzzer returns a fuzzer with a short-timeout client.
func NewFuzzer() *Fuzzer {
	return &Fuzzer{Client: &http.Client{Timeout: 5 * time.Second}}
}

// attack payloads per parameter type, the CATS-style generators.
var stringPayloads = []string{
	"",                          // empty
	strings.Repeat("A", 4096),   // oversized
	"' OR '1'='1",               // SQL injection
	"<script>alert(1)</script>", // XSS
	"../../../../etc/passwd",    // path traversal
	"%00%ff\x00",                // binary junk
	"нет-ascii-здесь",           // non-ASCII
	"$(touch /tmp/pwned)",       // command injection
}

var intPayloads = []string{"-1", "0", "999999999999999999999", "NaN", "1e309", "0x41"}

// Fuzz runs the full payload matrix against every endpoint of the spec.
func (f *Fuzzer) Fuzz(baseURL string, spec APISpec) (*Report, error) {
	rep := &Report{Target: baseURL}
	for _, ep := range spec.Endpoints {
		if err := f.fuzzEndpoint(baseURL, ep, rep); err != nil {
			return rep, fmt.Errorf("fuzz %s %s: %w", ep.Method, ep.Path, err)
		}
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].Endpoint != rep.Findings[j].Endpoint {
			return rep.Findings[i].Endpoint < rep.Findings[j].Endpoint
		}
		return rep.Findings[i].Kind < rep.Findings[j].Kind
	})
	return rep, nil
}

func (f *Fuzzer) fuzzEndpoint(baseURL string, ep Endpoint, rep *Report) error {
	// Auth-enforcement probe: call without credentials.
	if ep.RequiresAuth {
		status, _, err := f.call(baseURL, ep, map[string]string{}, false)
		if err != nil {
			return err
		}
		rep.RequestsSent++
		if status >= 200 && status < 300 {
			rep.Findings = append(rep.Findings, Finding{
				Kind: FindingAuthBypass, Endpoint: ep.Method + " " + ep.Path,
				Payload: "<no credentials>", Status: status,
			})
		}
	}
	// Parameter fuzzing.
	for _, p := range ep.Params {
		payloads := stringPayloads
		if p.Type == "int" {
			payloads = intPayloads
		}
		for _, payload := range payloads {
			values := map[string]string{p.Name: payload}
			endpoint := ep.Method + " " + ep.Path
			status, body, err := f.call(baseURL, ep, values, true)
			rep.RequestsSent++
			if err != nil {
				// A dropped connection mid-request (e.g. an unrecovered
				// crash) is itself an insecure-input-handling finding.
				rep.Findings = append(rep.Findings, Finding{
					Kind: FindingServerError, Endpoint: endpoint, Payload: payload, Status: 0,
				})
				continue
			}
			if status >= 500 {
				rep.Findings = append(rep.Findings, Finding{
					Kind: FindingServerError, Endpoint: endpoint, Payload: payload, Status: status,
				})
			}
			if len(payload) >= 8 && strings.Contains(body, payload) {
				rep.Findings = append(rep.Findings, Finding{
					Kind: FindingReflected, Endpoint: endpoint, Payload: payload, Status: status,
				})
			}
		}
		// Missing-required-parameter probe.
		if p.Required {
			status, _, err := f.call(baseURL, ep, map[string]string{}, true)
			if err != nil {
				return err
			}
			rep.RequestsSent++
			if status >= 500 {
				rep.Findings = append(rep.Findings, Finding{
					Kind: FindingServerError, Endpoint: ep.Method + " " + ep.Path,
					Payload: "<missing " + p.Name + ">", Status: status,
				})
			}
		}
	}
	return nil
}

func (f *Fuzzer) call(baseURL string, ep Endpoint, values map[string]string, withAuth bool) (int, string, error) {
	q := url.Values{}
	for k, v := range values {
		q.Set(k, v)
	}
	req, err := http.NewRequest(ep.Method, baseURL+ep.Path+"?"+q.Encode(), nil)
	if err != nil {
		return 0, "", err
	}
	if withAuth && f.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+f.AuthToken)
	}
	resp, err := f.Client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, string(body), nil
}
