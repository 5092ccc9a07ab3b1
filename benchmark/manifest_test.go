package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// runSeconds is BENCHMARK.json's run_seconds: with the driver's
// 4 + 22 x 4 runs, their set-up and two builds it must stay inside
// 3420 s in total.
const runSeconds = 30

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

// higherIsBetter are the per-layer metrics where more is good; every
// other per-layer metric is a cost.
var higherIsBetter = map[string]bool{
	"events.delivered":           true,
	"federation.recovered_share": true,
	"orchestrator.admitted":      true,
	"client.samples":             true,
}

func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, e := range endToEndMetrics {
		bound := e.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.name, e.unit, e.better, &bound})
	}
	for _, l := range perLayer {
		better := "lower"
		if higherIsBetter[l.name] {
			better = "higher"
		}
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: l.name, Unit: l.unit, Better: better})
	}
	return m
}

// TestManifestMatchesTables keeps ../BENCHMARK.json — what the driver
// reads — equal to the tables the program reports from.
func TestManifestMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(wantManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the tables in main.go, layers.go and workloads.go; it should read:\n%s", want)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
}
