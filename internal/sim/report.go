package sim

// The report is the replayable artifact of a run. Everything in it is a
// pure function of (scenario, seed): step outcomes, the virtual timeline,
// verdict and incident tallies. Deliberately absent: wall-clock times,
// goroutine-order-dependent sequences (raw incident logs), and key
// material — the things that would break byte-identical replay.

import "encoding/json"

// Report is the full record of one scenario run.
type Report struct {
	Scenario   string       `json:"scenario"`
	Seed       int64        `json:"seed"`
	Posture    string       `json:"posture"` // secure | legacy | custom
	Steps      []StepReport `json:"steps"`
	Invariants []string     `json:"invariants"`
	Violations int          `json:"violations"`
	Passed     bool         `json:"passed"`
	Final      FinalState   `json:"final"`
}

// StepReport records one step: what it did, when (virtual time), and any
// invariant violations present afterwards.
type StepReport struct {
	Index      int      `json:"index"`
	Name       string   `json:"name"`
	AtMs       int64    `json:"atMs"`
	Status     string   `json:"status"`
	Detail     string   `json:"detail,omitempty"`
	Violations []string `json:"violations,omitempty"`
}

// FinalState summarizes the platform when the scenario ends.
type FinalState struct {
	VirtualMs int64          `json:"virtualMs"`
	LiveNodes []string       `json:"liveNodes"`
	Workloads int            `json:"workloads"`
	Admitted  int            `json:"admitted"`
	Rejected  int            `json:"rejected"`
	Incidents map[string]int `json:"incidentsBySource"` // json sorts keys
	// Events tallies spine publishes per topic. Deterministic under the
	// Block backpressure policy every stock campaign runs with.
	Events map[string]uint64 `json:"eventsByTopic,omitempty"`
}

// JSON renders the report with stable formatting (and, via encoding/json,
// stable map-key ordering), so identical runs are byte-identical.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
