// Package scheduler is GENIO's placement engine: a filter -> score
// pipeline over candidate nodes, fused into one step per candidate.
//
// Filtering removes infeasible candidates (the request's excluded node,
// no capacity, cordoned); scoring ranks the survivors under the
// request's strategy:
//
//	binpack  pack workloads onto the most-utilized feasible node, keeping
//	         the fleet dense and whole nodes free for large demands (the
//	         default — and the behaviour the pre-scheduler first-fit
//	         placement approximated).
//	spread   place onto the least-utilized feasible node, with a tenant
//	         anti-affinity bonus for nodes not already hosting the
//	         tenant — the HA posture: one node loss takes out as few of
//	         a tenant's workloads as possible.
//
// A security-posture scorer additionally steers hard-isolation
// workloads away from nodes running shared (soft-isolation) VMs,
// whatever the strategy.
//
// The policy set is fixed, so the pipeline is straight-line code rather
// than a list of function values: a Scan vetoes and scores each offered
// candidate in one step without an indirect call, divides only for
// utilization on most candidates, and never allocates — a pass over a
// fleet is O(nodes) with zero garbage, the property TestSelectZeroAllocs
// pins. Explain is the allocating, human-facing variant that reports the
// per-candidate breakdown (`genioctl nodes -top`).
//
// The engine knows nothing about clusters, VMs, or images: callers read
// their node state into Candidate values and apply the decision
// themselves. That keeps the package pure (trivially testable, no locks)
// and lets every placement consumer — deploy, failover, drain — share
// one policy surface.
package scheduler

import "fmt"

// Strategy selects the scoring direction of the placement engine.
type Strategy string

// Built-in strategies.
const (
	// StrategyBinpack packs onto the most-utilized feasible node
	// (density: fewest nodes touched, large contiguous capacity kept
	// free). The cluster-wide default.
	StrategyBinpack Strategy = "binpack"
	// StrategySpread places onto the least-utilized feasible node and
	// prefers nodes not already hosting the tenant (HA: node loss takes
	// out as little of one tenant as possible).
	StrategySpread Strategy = "spread"
)

// UnknownStrategyError reports a strategy name outside the vocabulary.
// Policy carries the string that actually resolved (per-workload or
// cluster default) so callers blame the right knob without re-deriving
// the resolution order.
type UnknownStrategyError struct {
	Policy string
}

// Error names the offending policy and the accepted vocabulary.
func (e *UnknownStrategyError) Error() string {
	return fmt.Sprintf("scheduler: unknown placement strategy %q (want %s|%s)",
		e.Policy, StrategyBinpack, StrategySpread)
}

// ResolveStrategy resolves the effective strategy from a per-workload
// policy and a cluster default, either of which may be empty. Empty
// everywhere resolves to binpack. Unknown names are a typed
// *UnknownStrategyError — a typo'd policy must reject the deploy, not
// silently densify.
func ResolveStrategy(perWorkload, clusterDefault string) (Strategy, error) {
	pick := perWorkload
	if pick == "" {
		pick = clusterDefault
	}
	switch Strategy(pick) {
	case "", StrategyBinpack:
		return StrategyBinpack, nil
	case StrategySpread:
		return StrategySpread, nil
	default:
		return "", &UnknownStrategyError{Policy: pick}
	}
}

// Request is one placement demand, already resolved: the caller maps
// its workload spec (and cluster defaults) onto these fields.
type Request struct {
	Workload string
	Tenant   string
	Demand   Resources
	// HardIsolation marks a dedicated-VM workload; the security-posture
	// scorer steers it away from nodes running shared VMs.
	HardIsolation bool
	Strategy      Strategy
	// Exclude names one node that must never host this request —
	// a drain's own source, whatever its cordon flag says at the
	// instant of scheduling.
	Exclude string
}

// Candidate is one node's placement-relevant state. Callers fill it
// from whatever holds their node state; the engine only reads.
type Candidate struct {
	Node     string
	Capacity Resources
	Used     Resources
	// Cordoned nodes are unschedulable (lifecycle filter).
	Cordoned bool
	// TenantWorkloads counts the requesting tenant's workloads already
	// on the node (anti-affinity input).
	TenantWorkloads int
	// SharedVMs counts non-dedicated VMs on the node (security-posture
	// input: hardened isolation prefers nodes without shared VMs).
	SharedVMs int
}

// Scorer weights. A score is the weighted sum of the terms in the order
// strategy, tenant anti-affinity, security posture, divided by the
// weights' total, each product and sum rounded on its own (no fused
// multiply-add), so a recorded Workload.Score is the same bit for bit on
// every platform.
const (
	strategyWeight     = 1
	antiAffinityWeight = 0.2
	postureWeight      = 0.2
	totalWeight        = strategyWeight + antiAffinityWeight + postureWeight
)

// Engine is the filter -> score pipeline: filters exclude, capacity and
// cordon (first veto wins); scorers strategy (weight 1),
// tenant-anti-affinity (0.2) and security-posture (0.2). It holds no
// state, so one engine — or the zero value — serves any number of
// concurrent schedulers.
type Engine struct{}

// New returns an engine.
func New() *Engine { return &Engine{} }

// Feasible runs the filter phase: "" means the candidate may host the
// request, anything else is the first filter's rejection reason.
func (*Engine) Feasible(req *Request, c *Candidate) string { return veto(req, c) }

// veto is Feasible's body.
func veto(req *Request, c *Candidate) string {
	switch {
	case req.Exclude != "" && req.Exclude == c.Node:
		// A drain must never migrate a workload onto its own source, even
		// if the source's cordon was lifted mid-drain.
		return "node excluded by request"
	case !req.Demand.Fits(c.Capacity.Sub(c.Used)):
		return "insufficient capacity"
	case c.Cordoned:
		// The node-lifecycle taint: cordon marks a node unschedulable
		// ahead of maintenance or drain.
		return "node cordoned"
	}
	return ""
}

// Score runs the scoring phase over a feasible candidate: the
// weight-normalized sum of every scorer, in [0, 1].
func (*Engine) Score(req *Request, c *Candidate) float64 {
	return weightedSum(req, req.Strategy == StrategySpread, c) / totalWeight
}

// weightedSum is Score before the division by totalWeight.
func weightedSum(req *Request, spread bool, c *Candidate) float64 {
	// Strategy: binpack rewards high post-placement utilization, spread
	// rewards low.
	u := min(utilization(req, c), 1)
	if spread {
		u = 1 - u
	}
	sum := float64(strategyWeight * u)
	// Tenant anti-affinity prefers nodes not already hosting the tenant —
	// but only under spread, where the point is that one node loss takes
	// out as little of a tenant as possible. Under binpack it is neutral:
	// density deliberately stacks a tenant.
	affinity := 1.0
	if spread {
		affinity = inverse(c.TenantWorkloads)
	}
	sum += float64(antiAffinityWeight * affinity)
	// Security posture steers hard-isolation workloads away from nodes
	// running shared VMs: a dedicated-VM workload on a node with no soft
	// tenancy has no co-resident VM to be attacked from. Soft workloads
	// are indifferent.
	posture := 1.0
	if req.HardIsolation {
		posture = inverse(c.SharedVMs)
	}
	return sum + float64(postureWeight*posture)
}

// inverses holds 1/(1+k) for the small counts the affinity and posture
// scorers see, so a scan divides only for utilization.
var inverses = func() (t [64]float64) {
	for k := range t {
		t[k] = 1 / (1 + float64(k))
	}
	return t
}()

// inverse returns 1/(1+k).
func inverse(k int) float64 {
	if uint(k) < uint(len(inverses)) {
		return inverses[k]
	}
	return 1 / (1 + float64(k))
}

// Decision is Select's verdict: the winning candidate's index in the
// caller's slice, its name, and its score.
type Decision struct {
	Index int
	Node  string
	Score float64
}

// Scan is Select one candidate at a time — the single argmax behind
// Select and behind a cluster's pass over its candidate table. Offer
// every candidate in order, then read Best. A Scan never allocates.
type Scan struct {
	req    *Request
	spread bool
	best   Decision
	// bestSum is the winner's weighted sum. Dividing by the positive
	// totalWeight never reorders two sums, so a candidate whose sum is no
	// larger cannot beat the winner's score and skips the division.
	bestSum float64
}

// NewScan starts a scan for req.
func (*Engine) NewScan(req *Request) Scan {
	return Scan{req: req, spread: req.Strategy == StrategySpread, best: Decision{Index: -1}}
}

// Offer evaluates candidate i. Ties keep the earlier candidate, so a
// name-ordered sequence decides ties by name.
func (s *Scan) Offer(i int, c *Candidate) {
	if veto(s.req, c) != "" {
		return
	}
	sum := weightedSum(s.req, s.spread, c)
	if s.best.Index >= 0 && sum <= s.bestSum {
		return
	}
	if score := sum / totalWeight; s.best.Index < 0 || score > s.best.Score {
		s.best = Decision{Index: i, Node: c.Node, Score: score}
		s.bestSum = sum
	}
}

// Best returns the winner so far; false when no candidate was feasible.
func (s *Scan) Best() (Decision, bool) { return s.best, s.best.Index >= 0 }

// Select runs the pipeline over the candidates and returns the best
// feasible one. Ties break toward the earlier candidate, so a
// name-sorted slice decides ties deterministically by name. The
// boolean is false when no candidate is feasible. Select never
// allocates.
func (e *Engine) Select(req *Request, cands []Candidate) (Decision, bool) {
	s := e.NewScan(req)
	for i := range cands {
		s.Offer(i, &cands[i])
	}
	return s.Best()
}

// NodeScore is one candidate's outcome in an Explain breakdown.
type NodeScore struct {
	Node  string  `json:"node"`
	Score float64 `json:"score"`
	// Feasible is false when a filter vetoed the candidate; Reason
	// carries the veto.
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`
}

// Explain runs the pipeline and reports every candidate's outcome —
// the allocating introspection surface behind `genioctl nodes -top`.
func (e *Engine) Explain(req *Request, cands []Candidate) []NodeScore {
	out := make([]NodeScore, 0, len(cands))
	for i := range cands {
		c := &cands[i]
		if reason := e.Feasible(req, c); reason != "" {
			out = append(out, NodeScore{Node: c.Node, Reason: reason})
			continue
		}
		out = append(out, NodeScore{Node: c.Node, Feasible: true, Score: e.Score(req, c)})
	}
	return out
}

// utilization is the candidate's post-placement utilization fraction:
// the max of the CPU and memory fractions once the demand lands, so a
// node tight on either axis reads as full.
func utilization(req *Request, c *Candidate) float64 {
	after := c.Used.Add(req.Demand)
	var cpu, mem float64
	if c.Capacity.CPUMilli > 0 {
		cpu = float64(after.CPUMilli) / float64(c.Capacity.CPUMilli)
	}
	if c.Capacity.MemoryMB > 0 {
		mem = float64(after.MemoryMB) / float64(c.Capacity.MemoryMB)
	}
	return max(cpu, mem)
}
