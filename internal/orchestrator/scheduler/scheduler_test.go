package scheduler

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func cand(name string, capMilli, usedMilli int) Candidate {
	return Candidate{
		Node:     name,
		Capacity: Resources{CPUMilli: capMilli, MemoryMB: capMilli},
		Used:     Resources{CPUMilli: usedMilli, MemoryMB: usedMilli},
	}
}

func req(strategy Strategy) Request {
	return Request{Workload: "w", Tenant: "acme",
		Demand: Resources{CPUMilli: 100, MemoryMB: 100}, Strategy: strategy}
}

func TestResolveStrategy(t *testing.T) {
	cases := []struct {
		per, def string
		want     Strategy
		wantErr  bool
	}{
		{"", "", StrategyBinpack, false},
		{"binpack", "", StrategyBinpack, false},
		{"spread", "", StrategySpread, false},
		{"", "spread", StrategySpread, false},
		{"binpack", "spread", StrategyBinpack, false}, // per-workload wins
		{"mystery", "", "", true},
		{"", "mystery", "", true},
	}
	for _, c := range cases {
		got, err := ResolveStrategy(c.per, c.def)
		if c.wantErr {
			if err == nil {
				t.Fatalf("ResolveStrategy(%q, %q): want error", c.per, c.def)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Fatalf("ResolveStrategy(%q, %q) = %v, %v; want %v", c.per, c.def, got, err, c.want)
		}
	}
}

func TestBinpackPrefersUtilized(t *testing.T) {
	e := New()
	cands := []Candidate{cand("a", 1000, 100), cand("b", 1000, 700), cand("c", 1000, 400)}
	r := req(StrategyBinpack)
	d, ok := e.Select(&r, cands)
	if !ok || d.Node != "b" {
		t.Fatalf("binpack picked %+v, want b", d)
	}
}

func TestSpreadPrefersIdle(t *testing.T) {
	e := New()
	cands := []Candidate{cand("a", 1000, 100), cand("b", 1000, 700), cand("c", 1000, 400)}
	r := req(StrategySpread)
	d, ok := e.Select(&r, cands)
	if !ok || d.Node != "a" {
		t.Fatalf("spread picked %+v, want a", d)
	}
}

func TestStrategiesDivergeOnSameFleet(t *testing.T) {
	e := New()
	cands := []Candidate{cand("a", 1000, 500), cand("b", 1000, 0)}
	rb, rs := req(StrategyBinpack), req(StrategySpread)
	db, _ := e.Select(&rb, cands)
	ds, _ := e.Select(&rs, cands)
	if db.Node == ds.Node {
		t.Fatalf("binpack and spread agree on %s; want divergence", db.Node)
	}
}

func TestCapacityFilterVetoes(t *testing.T) {
	e := New()
	full := cand("full", 1000, 950)
	r := req(StrategyBinpack)
	if reason := e.Feasible(&r, &full); !strings.Contains(reason, "capacity") {
		t.Fatalf("reason = %q", reason)
	}
	// Memory alone can veto.
	tight := cand("tight", 1000, 0)
	tight.Used.MemoryMB = 950
	if reason := e.Feasible(&r, &tight); reason == "" {
		t.Fatal("memory-full candidate passed the capacity filter")
	}
	cands := []Candidate{full}
	if _, ok := e.Select(&r, cands); ok {
		t.Fatal("Select placed onto a full node")
	}
}

func TestCordonFilterVetoes(t *testing.T) {
	e := New()
	c := cand("m", 1000, 0)
	c.Cordoned = true
	r := req(StrategyBinpack)
	if reason := e.Feasible(&r, &c); reason != "node cordoned" {
		t.Fatalf("reason = %q", reason)
	}
}

func TestDeterministicTiebreakByOrder(t *testing.T) {
	e := New()
	// Identical candidates: the earlier (name-sorted by the caller) wins,
	// every time.
	cands := []Candidate{cand("olt-01", 1000, 0), cand("olt-02", 1000, 0), cand("olt-03", 1000, 0)}
	r := req(StrategyBinpack)
	for i := 0; i < 50; i++ {
		if d, ok := e.Select(&r, cands); !ok || d.Node != "olt-01" {
			t.Fatalf("round %d: picked %+v, want olt-01", i, d)
		}
	}
}

func TestSpreadAntiAffinityBreaksUtilizationTies(t *testing.T) {
	e := New()
	a, b := cand("a", 1000, 200), cand("b", 1000, 200)
	a.TenantWorkloads = 3 // tenant already stacked on a
	r := req(StrategySpread)
	d, ok := e.Select(&r, []Candidate{a, b})
	if !ok || d.Node != "b" {
		t.Fatalf("spread anti-affinity picked %+v, want b", d)
	}
}

func TestHardIsolationAvoidsSharedVMs(t *testing.T) {
	e := New()
	a, b := cand("a", 1000, 200), cand("b", 1000, 200)
	a.SharedVMs = 2
	r := req(StrategyBinpack)
	r.HardIsolation = true
	d, ok := e.Select(&r, []Candidate{a, b})
	if !ok || d.Node != "b" {
		t.Fatalf("hard isolation picked %+v, want b (no shared VMs)", d)
	}
	// Soft isolation is indifferent: equal scores, first wins.
	r.HardIsolation = false
	if d, _ := e.Select(&r, []Candidate{a, b}); d.Node != "a" {
		t.Fatalf("soft isolation picked %s, want a (tie, first wins)", d.Node)
	}
}

func TestExplainReportsEveryCandidate(t *testing.T) {
	e := New()
	cord := cand("c", 1000, 0)
	cord.Cordoned = true
	cands := []Candidate{cand("a", 1000, 100), cand("b", 1000, 999), cord}
	r := req(StrategyBinpack)
	scores := e.Explain(&r, cands)
	if len(scores) != 3 {
		t.Fatalf("Explain returned %d entries", len(scores))
	}
	if !scores[0].Feasible || scores[0].Score <= 0 {
		t.Fatalf("a should be feasible with a positive score: %+v", scores[0])
	}
	if scores[1].Feasible || scores[1].Reason == "" {
		t.Fatalf("b should be vetoed for capacity: %+v", scores[1])
	}
	if scores[2].Feasible || scores[2].Reason != "node cordoned" {
		t.Fatalf("c should be vetoed for cordon: %+v", scores[2])
	}
}

// TestSelectZeroAllocs pins the engine's central perf property: a full
// filter -> score pass over a large fleet allocates nothing, so the
// deploy hot path scales O(nodes) with zero garbage. The satellite
// AllocsPerOp assertion also runs inside BenchmarkSchedule1kNodes.
func TestSelectZeroAllocs(t *testing.T) {
	e := New()
	cands := make([]Candidate, 1000)
	for i := range cands {
		cands[i] = cand(nodeName(i), 8000, (i*37)%6000)
		cands[i].TenantWorkloads = i % 3
		cands[i].SharedVMs = i % 2
	}
	for _, strategy := range []Strategy{StrategyBinpack, StrategySpread} {
		r := req(strategy)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, ok := e.Select(&r, cands); !ok {
				t.Fatal("no feasible candidate")
			}
		}); allocs != 0 {
			t.Fatalf("%s Select allocates %.1f/op, want 0", strategy, allocs)
		}
	}
}

// nodeName is a deterministic fixture name without fmt (kept simple so
// test setup cost stays trivial).
func nodeName(i int) string {
	return "node-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

// referenceScore is the scoring pipeline written out term by term as
// the engine's documentation states it: every scorer's weighted term
// rounded on its own, summed in order, divided by the weights' total.
func referenceScore(r *Request, c *Candidate) float64 {
	after := c.Used.Add(r.Demand)
	var cpu, mem float64
	if c.Capacity.CPUMilli > 0 {
		cpu = float64(after.CPUMilli) / float64(c.Capacity.CPUMilli)
	}
	if c.Capacity.MemoryMB > 0 {
		mem = float64(after.MemoryMB) / float64(c.Capacity.MemoryMB)
	}
	u := mem
	if cpu > mem {
		u = cpu
	}
	if u > 1 {
		u = 1
	}
	strategy, affinity, posture := u, 1.0, 1.0
	if r.Strategy == StrategySpread {
		strategy = 1 - u
		affinity = 1 / (1 + float64(c.TenantWorkloads))
	}
	if r.HardIsolation {
		posture = 1 / (1 + float64(c.SharedVMs))
	}
	weights := []float64{1, 0.2, 0.2}
	terms := []float64{strategy, affinity, posture}
	var sum, total float64
	for i := range terms {
		sum += float64(weights[i] * terms[i])
		total += weights[i]
	}
	return sum / total
}

// TestScanMatchesReference holds the fused pass to the plain pipeline on
// seeded random fleets full of ties: Score equals the reference bit for
// bit (tenant and VM counts past the inverse table included), and Select
// picks the first candidate with the highest reference score — the skip
// of the division for candidates whose sum cannot win never changes the
// winner.
func TestScanMatchesReference(t *testing.T) {
	e := New()
	// Two sums one ulp apart (0.49999999999999994 and 0.5) that divide to
	// the same score: the earlier candidate must keep the win.
	a, b := cand("a", 1000, 700), cand("b", 1000, 800)
	a.TenantWorkloads = 1
	r := req(StrategySpread)
	if weightedSum(&r, true, &a) >= weightedSum(&r, true, &b) || e.Score(&r, &a) != e.Score(&r, &b) {
		t.Fatal("fixture is no longer a one-ulp tie")
	}
	if d, _ := e.Select(&r, []Candidate{a, b}); d.Node != "a" {
		t.Fatalf("one-ulp tie picked %s, want the earlier a", d.Node)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 2000; round++ {
		cands := make([]Candidate, 1+rng.Intn(40))
		for i := range cands {
			capacity := 1000 * (1 + rng.Intn(4))
			cands[i] = cand(nodeName(i), capacity, 100*rng.Intn(capacity/100+1))
			cands[i].Used.MemoryMB = 100 * rng.Intn(capacity/100+1)
			cands[i].Cordoned = rng.Intn(10) == 0
			cands[i].TenantWorkloads = rng.Intn(3) + 70*rng.Intn(2)
			cands[i].SharedVMs = rng.Intn(3) + 70*rng.Intn(2)
		}
		r := req([]Strategy{StrategyBinpack, StrategySpread}[rng.Intn(2)])
		r.HardIsolation = rng.Intn(2) == 0
		want := Decision{Index: -1}
		for i := range cands {
			c := &cands[i]
			if e.Feasible(&r, c) != "" {
				continue
			}
			ref := referenceScore(&r, c)
			if got := e.Score(&r, c); math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("round %d: Score(%+v) = %v, reference %v", round, *c, got, ref)
			}
			if want.Index < 0 || ref > want.Score {
				want = Decision{Index: i, Node: c.Node, Score: ref}
			}
		}
		got, ok := e.Select(&r, cands)
		if ok != (want.Index >= 0) || got != want {
			t.Fatalf("round %d: Select = %+v, %v; want %+v", round, got, ok, want)
		}
	}
}
