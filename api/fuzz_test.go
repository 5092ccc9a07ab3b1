package api

import (
	"encoding/json"
	"testing"

	"genio/internal/orchestrator"
)

// FuzzWorkloadSpecToOrchestrator: the deploy body is untrusted input.
// Whatever JSON decodes into a WorkloadSpec either refuses conversion or
// yields a library spec the pipeline's accounting can trust: no negative
// demand, a known isolation mode, every other field carried verbatim.
func FuzzWorkloadSpecToOrchestrator(f *testing.F) {
	for _, seed := range []string{
		`{"name":"web","tenant":"acme","imageRef":"acme/analytics:2.0.1","isolation":"soft","resources":{"cpuMilli":500,"memoryMB":512}}`,
		`{"name":"neg","tenant":"acme","resources":{"cpuMilli":-100000,"memoryMB":-100000}}`,
		`{"name":"half","resources":{"cpuMilli":100,"memoryMB":-1}}`,
		`{"name":"zero","isolation":"hard","placementPolicy":"spread","region":"region-a"}`,
		`{"isolation":"quantum"}`,
		`{"resources":{"cpuMilli":9223372036854775807}}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ws WorkloadSpec
		if json.Unmarshal(data, &ws) != nil {
			return
		}
		spec, err := ws.ToOrchestrator()
		if err != nil {
			return
		}
		if spec.Resources.CPUMilli < 0 || spec.Resources.MemoryMB < 0 {
			t.Fatalf("negative demand converted: %+v", spec.Resources)
		}
		if spec.Isolation != orchestrator.IsolationSoft && spec.Isolation != orchestrator.IsolationHard {
			t.Fatalf("unknown isolation mode %v from %q", spec.Isolation, ws.Isolation)
		}
		if spec.Name != ws.Name || spec.Tenant != ws.Tenant || spec.ImageRef != ws.ImageRef ||
			spec.PlacementPolicy != ws.PlacementPolicy || spec.Region != ws.Region {
			t.Fatalf("fields lost: wire %+v -> lib %+v", ws, spec)
		}
	})
}
