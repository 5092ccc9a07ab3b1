// Package threatmodel implements the STRIDE-based threat modelling engine
// used to design GENIO's security posture (Section III of the paper), and
// encodes the paper's concrete model: threats T1–T8 across the
// infrastructure, middleware, and application layers, mitigations M1–M18,
// and the threat-to-mitigation coverage matrix of Figure 3.
package threatmodel

import (
	"fmt"
	"sort"
	"strings"
)

// Layer is an architectural layer of the GENIO platform.
type Layer int

// Layers.
const (
	LayerInfrastructure Layer = iota + 1
	LayerMiddleware
	LayerApplication
)

var layerNames = map[Layer]string{
	LayerInfrastructure: "infrastructure",
	LayerMiddleware:     "middleware",
	LayerApplication:    "application",
}

// String names the layer.
func (l Layer) String() string {
	if n, ok := layerNames[l]; ok {
		return n
	}
	return fmt.Sprintf("layer(%d)", int(l))
}

// Category is a STRIDE threat category.
type Category int

// STRIDE categories.
const (
	Spoofing Category = iota + 1
	Tampering
	Repudiation
	InformationDisclosure
	DenialOfService
	ElevationOfPrivilege
)

var categoryNames = map[Category]string{
	Spoofing:              "spoofing",
	Tampering:             "tampering",
	Repudiation:           "repudiation",
	InformationDisclosure: "information-disclosure",
	DenialOfService:       "denial-of-service",
	ElevationOfPrivilege:  "elevation-of-privilege",
}

// String names the category.
func (c Category) String() string {
	if n, ok := categoryNames[c]; ok {
		return n
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Threat is one modelled threat.
type Threat struct {
	ID          string     `json:"id"`
	Name        string     `json:"name"`
	Layer       Layer      `json:"layer"`
	STRIDE      []Category `json:"stride"`
	Description string     `json:"description"`
	Vectors     []string   `json:"vectors"`
}

// Mitigation is one deployed countermeasure.
type Mitigation struct {
	ID        string   `json:"id"`
	Name      string   `json:"name"`
	Layer     Layer    `json:"layer"`
	Mitigates []string `json:"mitigates"` // threat IDs
	Tools     []string `json:"tools"`     // OSS tools the paper names
	Standards []string `json:"standards"` // standards/guidelines followed
	Module    string   `json:"module"`    // package implementing it here
}

// Model is a complete threat model.
type Model struct {
	Threats     []Threat     `json:"threats"`
	Mitigations []Mitigation `json:"mitigations"`
}

// MitigationByID returns a mitigation.
func (m *Model) MitigationByID(id string) (Mitigation, bool) {
	for _, mit := range m.Mitigations {
		if mit.ID == id {
			return mit, true
		}
	}
	return Mitigation{}, false
}

// Validate checks referential integrity: every mitigation maps to existing
// threats, IDs are unique.
func (m *Model) Validate() error {
	tids := make(map[string]bool, len(m.Threats))
	for _, t := range m.Threats {
		if tids[t.ID] {
			return fmt.Errorf("threatmodel: duplicate threat id %s", t.ID)
		}
		tids[t.ID] = true
	}
	mids := make(map[string]bool, len(m.Mitigations))
	for _, mit := range m.Mitigations {
		if mids[mit.ID] {
			return fmt.Errorf("threatmodel: duplicate mitigation id %s", mit.ID)
		}
		mids[mit.ID] = true
		if len(mit.Mitigates) == 0 {
			return fmt.Errorf("threatmodel: mitigation %s mitigates nothing", mit.ID)
		}
		for _, tid := range mit.Mitigates {
			if !tids[tid] {
				return fmt.Errorf("threatmodel: mitigation %s references unknown threat %s", mit.ID, tid)
			}
		}
	}
	return nil
}

// Coverage maps each threat ID to the mitigations addressing it.
func (m *Model) Coverage() map[string][]string {
	out := make(map[string][]string, len(m.Threats))
	for _, t := range m.Threats {
		out[t.ID] = nil
	}
	for _, mit := range m.Mitigations {
		for _, tid := range mit.Mitigates {
			out[tid] = append(out[tid], mit.ID)
		}
	}
	for tid := range out {
		sort.Strings(out[tid])
	}
	return out
}

// Uncovered returns threats with no mitigation.
func (m *Model) Uncovered() []string {
	var out []string
	for tid, mits := range m.Coverage() {
		if len(mits) == 0 {
			out = append(out, tid)
		}
	}
	sort.Strings(out)
	return out
}

// MatrixRow is one line of the Figure-3 reproduction.
type MatrixRow struct {
	ThreatID    string   `json:"threatId"`
	ThreatName  string   `json:"threatName"`
	Layer       string   `json:"layer"`
	Mitigations []string `json:"mitigations"`
	Tools       []string `json:"tools"`
	Standards   []string `json:"standards"`
}

// Matrix produces the Figure-3 rows: per threat, its mitigations, the OSS
// tools deployed, and the standards followed.
func (m *Model) Matrix() []MatrixRow {
	cov := m.Coverage()
	rows := make([]MatrixRow, 0, len(m.Threats))
	for _, t := range m.Threats {
		row := MatrixRow{ThreatID: t.ID, ThreatName: t.Name, Layer: t.Layer.String(),
			Mitigations: cov[t.ID]}
		seenTool := map[string]bool{}
		seenStd := map[string]bool{}
		for _, mid := range cov[t.ID] {
			mit, _ := m.MitigationByID(mid)
			for _, tool := range mit.Tools {
				if !seenTool[tool] {
					seenTool[tool] = true
					row.Tools = append(row.Tools, tool)
				}
			}
			for _, std := range mit.Standards {
				if !seenStd[std] {
					seenStd[std] = true
					row.Standards = append(row.Standards, std)
				}
			}
		}
		sort.Strings(row.Tools)
		sort.Strings(row.Standards)
		rows = append(rows, row)
	}
	return rows
}

// RenderMatrix renders the Figure-3 reproduction as aligned text.
func (m *Model) RenderMatrix() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-26s %-15s %-22s %s\n", "ID", "Threat", "Layer", "Mitigations", "OSS tools / standards")
	for _, row := range m.Matrix() {
		fmt.Fprintf(&b, "%-4s %-26s %-15s %-22s %s\n",
			row.ThreatID, row.ThreatName, row.Layer,
			strings.Join(row.Mitigations, ","),
			strings.Join(append(append([]string(nil), row.Tools...), row.Standards...), ", "))
	}
	return b.String()
}
