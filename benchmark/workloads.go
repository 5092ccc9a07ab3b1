package main

import (
	"fmt"
	"math/rand"

	"genio/api"
)

// A workload is a traffic mix against its own fixture. Every workload
// runs the same five phases in every epoch — sequential signed
// deploys with a health probe after every fourth, 64-spec batches under
// an open watch stream, operator cycles (fleet read, drain, uncordon,
// node failure), a wire audit, and SIGKILL + recovery cycles — because
// the driver's contract wants every end-to-end metric from every
// workload. What differs is which phase carries the volume and what the
// fixture makes expensive; the `Why` strings (copied into
// BENCHMARK.json) say which layer that puts under load.
type workload struct {
	Name string
	Why  string

	Members  []memberSpec
	Pins     map[string]string
	Nodes    int
	NodeCPU  int
	NodeMem  int
	Strategy string // per-deploy placementPolicy ("" = cluster default binpack)

	Warmup int // untimed deploys before the measured phases
	Sync   int // sequential POST /v2/deployments per epoch
	// Of every 16 sync deploys: Cold reference an image no cache has
	// seen, Miner the signed cryptominer, Unsigned the unsigned backdoor,
	// Clash a region that contradicts the tenant's pin. The rest deploy
	// the one hot image.
	Cold, Miner, Unsigned, Clash int
	// SharedBy > 0 turns the cold share into a pool of Sync*Cold/16/SharedBy
	// variants, each deployed by SharedBy different tenants.
	SharedBy int

	Batches int // POST /v2/deploy/batch requests of batchSize specs
	// BatchCold of every batch's specs reference an image no cache has
	// seen (drawn from the shared pool when SharedBy > 0), so the bulk
	// phase carries the workload's admission cost too.
	BatchCold  int
	OpsCycles  int // Reads x Nodes(probe) -> Drain(fullest node) -> Uncordon
	Reads      int // scored fleet reads per cycle
	FailCycles int // FailNode(node) -> AddNode(node)
	Recoveries int // SIGKILL -> restart -> verify cycles on the same data dir
}

const (
	batchSize = 64
	tenants   = 16
	deployCPU = 100
	deployMem = 128
	// A large node fits 1500 deploys: no epoch can exhaust eight of them
	// (there is no wire undeploy), yet the default binpack strategy fills
	// one and moves on, so a drain migrates 1500 workloads, not the whole
	// epoch.
	largeCPU   = 1500 * deployCPU
	largeMemMB = 1500 * deployMem
	fleetCPU   = 16000
	fleetMemMB = 32768
)

// Sizes are a fixed operation count per epoch, never a duration: with
// no undeploy the state a request meets (map sizes, WAL bytes, snapshot
// cadence) depends on how many came before it, and must be the same on
// both commits being compared. A run repeats whole epochs, each on a
// fresh daemon, until --seconds is used up. The counts are balanced so
// that every end-to-end metric gets a few hundred samples per run on
// every workload, also where its phase is not the point.
var workloads = []workload{
	{
		Name:  "hot_sync_bulk_recover",
		Why:   "1600 sequential signed deploys of one image on 8 nodes, 64 batches of 64 under a watch stream, 3 kill+recover cycles of 5.7k placements: wire tax with hot caches, futures, SSE, WAL replay",
		Nodes: 8, NodeCPU: largeCPU, NodeMem: largeMemMB,
		Warmup: 100, Sync: 1600, Unsigned: 1,
		Batches: 64, OpsCycles: 1, Reads: 32, Recoveries: 3,
	},
	{
		Name:  "sync_cold_scan",
		Why:   "1200 sequential deploys, 14/16 a distinct signed image, 1/16 cryptominer, 1/16 unsigned, batches a quarter cold: signature verify, four scanners, typed errors",
		Nodes: 8, NodeCPU: largeCPU, NodeMem: largeMemMB,
		Warmup: 100, Sync: 1200, Cold: 14, Miner: 1, Unsigned: 1,
		Batches: 32, BatchCold: 16, OpsCycles: 1, Reads: 32, Recoveries: 2,
	},
	{
		Name:  "fleet_ops",
		Why:   "256 real-size nodes, 1000 spread deploys + 40 spread batches, 16 fleet-read/drain/uncordon cycles, 2 node failures: scheduler filter/score, O(fleet) reads",
		Nodes: 256, NodeCPU: fleetCPU, NodeMem: fleetMemMB, Strategy: "spread",
		Warmup: 100, Sync: 1000, Unsigned: 1,
		Batches: 40, OpsCycles: 16, Reads: 4, FailCycles: 2, Recoveries: 2,
	},
	{
		Name:    "fed_shared_images",
		Why:     "3-member federation, 2 pinned tenants, images each deployed by 8 tenants (sync and a quarter of every batch), 1/16 region clashes: ring, overflow, per-member rescans",
		Members: []memberSpec{{"edge-a", "west"}, {"edge-b", "east"}, {"edge-c", "east"}},
		Pins:    map[string]string{tenantName(0): "west", tenantName(1): "east"},
		Nodes:   12, NodeCPU: largeCPU, NodeMem: largeMemMB,
		Warmup: 100, Sync: 1600, Cold: 15, Clash: 1, SharedBy: 8,
		Batches: 32, BatchCold: 16, OpsCycles: 1, Reads: 32, Recoveries: 2,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// scaled shrinks every count by div for the -smoke pass and the tests;
// the fixture shape (fleet size, federation) stays.
func (w workload) scaled(div int) workload {
	shrink := func(n, min int) int {
		if n == 0 {
			return 0
		}
		if n /= div; n < min {
			n = min
		}
		return n
	}
	w.Warmup = shrink(w.Warmup, 16)
	w.Sync = shrink(w.Sync, 32)
	w.Batches = shrink(w.Batches, 2)
	w.OpsCycles = shrink(w.OpsCycles, 1)
	w.Reads = shrink(w.Reads, 4)
	w.FailCycles = shrink(w.FailCycles, 1)
	w.Recoveries = shrink(w.Recoveries, 1)
	return w
}

// expect is the outcome the generator promises for a deploy; the
// loader checks every reply against it.
type expect string

const (
	expectPlaced    expect = "placed"
	expectAdmission expect = "admission-denied" // *orchestrator.AdmissionError
	expectUnsigned  expect = "image-pull"       // *orchestrator.ImagePullError
	expectPinned    expect = "region-pinned"    // *federation.RegionPinnedError
)

type deployOp struct {
	ID     int              `json:"id"`
	Spec   api.WorkloadSpec `json:"spec"`
	Expect expect           `json:"expect"`
}

// plan is one epoch's complete input: the fixture the daemon builds
// and every request the loader will send, with the expected outcome.
// It is a pure function of (workload, seed, epoch).
type plan struct {
	Fixture fixtureSpec          `json:"fixture"`
	Warmup  []deployOp           `json:"warmup"`
	Sync    []deployOp           `json:"sync"`
	Batches [][]api.WorkloadSpec `json:"batches"`
	// Cycles is how many read-drain-uncordon cycles run; Local names the
	// default cluster's nodes, the only ones the wire's drain and fail
	// verbs reach.
	Cycles     int        `json:"cycles"`
	Reads      int        `json:"reads"`
	Local      []string   `json:"local"`
	Fails      []nodeSpec `json:"fails"`
	Recoveries int        `json:"recoveries"`
	// Probe is the demand GET /v2/nodes asks the scheduler to score.
	Probe api.Resources `json:"probe"`
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }

func (w *workload) fixture() fixtureSpec {
	fx := fixtureSpec{Members: w.Members, Pins: w.Pins}
	for i := 0; i < tenants; i++ {
		fx.Tenants = append(fx.Tenants, tenantName(i))
	}
	for i := 0; i < w.Nodes; i++ {
		n := nodeSpec{Name: fmt.Sprintf("node-%03d", i), CPUMilli: w.NodeCPU, MemoryMB: w.NodeMem}
		if len(w.Members) > 0 {
			n.Cluster = w.Members[i%len(w.Members)].Name
			n.Name = fmt.Sprintf("%s-node-%02d", n.Cluster, i/len(w.Members))
		}
		fx.Nodes = append(fx.Nodes, n)
	}
	return fx
}

// generate builds the epoch's plan. Class counts are exact (a shuffled
// multiset, not a coin per op), so every seed sends the same amount of
// each kind of work and only order, tenants and node choices vary.
func (w *workload) generate(seed int64, epoch int) *plan {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(epoch)))
	pl := &plan{Fixture: w.fixture(), Probe: api.Resources{CPUMilli: deployCPU, MemoryMB: deployMem}}
	variants := 0
	nextVariant := func() string {
		variants++
		return variantRef(variants - 1)
	}
	spec := func(name, tenant, ref string) api.WorkloadSpec {
		return api.WorkloadSpec{Name: name, Tenant: tenant, ImageRef: ref,
			Resources:       api.Resources{CPUMilli: deployCPU, MemoryMB: deployMem},
			PlacementPolicy: w.Strategy}
	}
	// unpinned draws a tenant free to land in any region.
	unpinned := func() string {
		for {
			if t := tenantName(rng.Intn(tenants)); w.Pins[t] == "" {
				return t
			}
		}
	}

	// coldSpecs returns n (tenant, image) pairs that miss the signature
	// and verdict caches: a fresh variant each, or with SharedBy a pool in
	// which every variant goes to SharedBy different tenants.
	coldSpecs := func(n int) []api.WorkloadSpec {
		var pool []api.WorkloadSpec
		if w.SharedBy == 0 {
			for i := 0; i < n; i++ {
				pool = append(pool, spec("", unpinned(), nextVariant()))
			}
			return pool
		}
		for len(pool) < n {
			ref := nextVariant()
			for _, t := range rng.Perm(tenants)[:w.SharedBy] {
				pool = append(pool, spec("", tenantName(t), ref))
			}
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		return pool[:n]
	}

	stream := func(prefix string, n int, miners int) []deployOp {
		classes := make([]expect, 0, n)
		cold := make([]bool, 0, n)
		add := func(count int, e expect, isCold bool) {
			for i := 0; i < count; i++ {
				classes = append(classes, e)
				cold = append(cold, isCold)
			}
		}
		add(miners, expectAdmission, false)
		add(n*w.Unsigned/16, expectUnsigned, false)
		add(n*w.Clash/16, expectPinned, false)
		add(n*w.Cold/16, expectPlaced, true)
		add(n-len(classes), expectPlaced, false)
		rng.Shuffle(n, func(i, j int) {
			classes[i], classes[j] = classes[j], classes[i]
			cold[i], cold[j] = cold[j], cold[i]
		})
		pool := coldSpecs(n * w.Cold / 16)
		ops := make([]deployOp, n)
		for i := range ops {
			name := fmt.Sprintf("%s-%05d", prefix, i)
			s := spec(name, unpinned(), hotRef)
			switch {
			case classes[i] == expectAdmission:
				s.ImageRef = minerRef
			case classes[i] == expectUnsigned:
				s.ImageRef = backdoorRef
			case classes[i] == expectPinned:
				// A pinned tenant asking for the other region.
				s.Tenant, s.Region = tenantName(0), "east"
				if rng.Intn(2) == 1 {
					s.Tenant, s.Region = tenantName(1), "west"
				}
			case cold[i]:
				s.Tenant, s.ImageRef = pool[0].Tenant, pool[0].ImageRef
				pool = pool[1:]
			}
			ops[i] = deployOp{ID: i, Spec: s, Expect: classes[i]}
		}
		return ops
	}

	// One cryptominer deploy in warm-up measures k, the number of
	// incidents one admission rejection records on this fixture.
	warmMiners := 0
	if w.Miner > 0 {
		warmMiners = 1
	}
	pl.Warmup = stream("u", w.Warmup, warmMiners)
	pl.Sync = stream("w", w.Sync, w.Sync*w.Miner/16)
	batchCold := coldSpecs(w.Batches * w.BatchCold)
	for b := 0; b < w.Batches; b++ {
		specs := make([]api.WorkloadSpec, batchSize)
		for i := range specs {
			specs[i] = spec(fmt.Sprintf("b-%04d-%02d", b, i), unpinned(), hotRef)
			if i < w.BatchCold {
				cold := batchCold[b*w.BatchCold+i]
				specs[i].Tenant, specs[i].ImageRef = cold.Tenant, cold.ImageRef
			}
		}
		pl.Batches = append(pl.Batches, specs)
	}
	pl.Fixture.Variants = variants

	pl.Cycles, pl.Reads, pl.Recoveries = w.OpsCycles, w.Reads, w.Recoveries
	var local []nodeSpec
	for _, n := range pl.Fixture.Nodes {
		if len(w.Members) == 0 || n.Cluster == w.Members[0].Name {
			local = append(local, n)
			pl.Local = append(pl.Local, n.Name)
		}
	}
	for _, i := range rng.Perm(len(local))[:w.FailCycles] {
		pl.Fails = append(pl.Fails, local[i])
	}
	return pl
}

// expected tallies what the plan promises, for the end-of-epoch audit.
func (pl *plan) expected() (placed, admission int) {
	for _, ops := range [][]deployOp{pl.Warmup, pl.Sync} {
		for _, op := range ops {
			switch op.Expect {
			case expectPlaced:
				placed++
			case expectAdmission:
				admission++
			}
		}
	}
	for _, b := range pl.Batches {
		placed += len(b)
	}
	return placed, admission
}
