// Package warmpool holds the warm-slot runtime pool: per-(tenant,
// image-digest) pools of sandbox/VM slots kept warm after a workload
// stops, so a repeat deploy of an already-vetted image claims a slot in
// O(1) instead of paying the scan chain, scheduler filter/score, and VM
// spin-up again.
//
// A slot moves through three states:
//
//	idle    — parked on a node, its capacity still reserved there
//	claimed — bound to exactly one live workload (the fast deploy path)
//	evicted — removed: watermark pressure, cordon/drain flush, node
//	          failure, pool close. Evicted slots are gone; the state
//	          exists only in the lifecycle vocabulary and the counters.
//
// The pool is pure bookkeeping: it never touches node capacity or the
// workload table. Removal from the pool (TakeMRU, EvictLRU, FlushNode,
// FlushAll) is the linearization point for slot ownership — exactly one
// caller removes any given slot, and that caller owns the node-side
// capacity reservation the slot was holding. Pool methods never call
// out while holding the pool mutex (match callbacks must be pure), so
// callers may combine pool operations with their own node or cluster
// locks in either order without deadlock.
//
// Determinism: slots are ordered by a monotonic sequence number, never
// by map iteration. Claims take the most recently parked slot (warmest
// first); eviction takes the least recently parked (LRU). Replayed
// simulation runs therefore claim and evict identically.
package warmpool

import (
	"sort"
	"sync"

	"genio/internal/orchestrator/scheduler"
)

// Resources mirrors the scheduler's demand/capacity vocabulary.
type Resources = scheduler.Resources

// Slot is one warm sandbox/VM slot. While idle its Res stays reserved
// against Node's capacity; the VM identity (VMID, Dedicated) is revived
// verbatim when the slot is claimed.
type Slot struct {
	Tenant string    `json:"tenant"`
	Digest string    `json:"digest"`
	Node   string    `json:"node"`
	VMID   string    `json:"vmId"`
	Res    Resources `json:"res"`
	// Dedicated records the parked VM's isolation mode: a dedicated
	// (hard-isolation) slot only satisfies hard-isolation deploys.
	Dedicated bool `json:"dedicated,omitempty"`
	// Seq is the monotonic park order — the LRU/MRU axis. Unique per
	// pool lifetime.
	Seq uint64 `json:"seq"`
	// IdleSinceMs is the cluster-clock park time (zero without a clock).
	IdleSinceMs int64 `json:"idleSinceMs,omitempty"`
}

// Counters are the pool's monotonic lifecycle totals, mirrored onto the
// spine as slot.hit / slot.miss / slot.evict / slot.flush metrics.
type Counters struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Evicted uint64 `json:"evicted"`
	Flushed uint64 `json:"flushed"`
}

// PoolRow is one (tenant, digest) pool's snapshot for reporting.
type PoolRow struct {
	Tenant  string `json:"tenant"`
	Digest  string `json:"digest"`
	Idle    int    `json:"idle"`
	Claimed int    `json:"claimed"`
}

// NodeCount is one node's warm-slot census.
type NodeCount struct {
	Idle    int `json:"idle"`
	Claimed int `json:"claimed"`
}

// Claim is one claimed-slot record: the workload a slot is bound to.
type Claim struct {
	Workload string `json:"workload"`
	Slot     Slot   `json:"slot"`
}

type key struct{ tenant, digest string }

// Pool is the warm-slot registry. Safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	seq  uint64
	idle map[key][]*Slot // Seq-ascending within each pool
	// claimed maps workload name -> the slot it claimed, kept so stop,
	// migration, and failover can retire the binding, and so per-node
	// claimed counts are reportable.
	claimed  map[string]*Slot
	counters Counters
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{idle: make(map[key][]*Slot), claimed: make(map[string]*Slot)}
}

// Park adds an idle slot (Seq is assigned here) and returns it.
func (p *Pool) Park(s Slot) *Slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	s.Seq = p.seq
	k := key{s.Tenant, s.Digest}
	sp := &s
	p.idle[k] = append(p.idle[k], sp)
	return sp
}

// TakeMRU removes and returns the most recently parked idle slot of the
// (tenant, digest) pool accepted by match (which must be pure: no locks,
// no pool calls), or nil. The returned slot is owned by the caller —
// bind it with BindClaim on success, or account its reservation and
// RecordEvict it if validation fails outside the pool.
func (p *Pool) TakeMRU(tenant, digest string, match func(*Slot) bool) *Slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := key{tenant, digest}
	slots := p.idle[k]
	for i := len(slots) - 1; i >= 0; i-- {
		if !match(slots[i]) {
			continue
		}
		s := slots[i]
		p.removeIdleLocked(k, i)
		return s
	}
	return nil
}

// BindClaim records a successful claim: the slot binds to the workload
// and the hit counter advances.
func (p *Pool) BindClaim(workload string, s *Slot) {
	p.mu.Lock()
	p.claimed[workload] = s
	p.counters.Hits++
	p.mu.Unlock()
}

// RecordMiss counts a warm-path miss (no claimable slot, or claim-time
// revalidation failed).
func (p *Pool) RecordMiss() {
	p.mu.Lock()
	p.counters.Misses++
	p.mu.Unlock()
}

// RecordEvict counts n evictions decided outside the pool (a taken slot
// that failed claim-time revalidation and was discarded).
func (p *Pool) RecordEvict(n int) {
	p.mu.Lock()
	p.counters.Evicted += uint64(n)
	p.mu.Unlock()
}

// removeIdleLocked drops index i from one pool's slice, preserving Seq
// order. Callers hold p.mu.
func (p *Pool) removeIdleLocked(k key, i int) {
	slots := p.idle[k]
	slots = append(slots[:i], slots[i+1:]...)
	if len(slots) == 0 {
		delete(p.idle, k)
	} else {
		p.idle[k] = slots
	}
}

// DropClaimed retires a workload's claimed-slot binding (stop, migrate,
// failover). Returns the slot, or nil if the workload held none.
func (p *Pool) DropClaimed(workload string) *Slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.claimed[workload]
	if !ok {
		return nil
	}
	delete(p.claimed, workload)
	return s
}

// EvictLRU removes, counts, and returns the least recently parked idle
// slot on node (any node when node is empty); nil when none is idle
// there. The caller owns the released reservation.
func (p *Pool) EvictLRU(node string) *Slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	bk, bi := key{}, -1
	var best *Slot
	for k, slots := range p.idle {
		for i, s := range slots {
			if node != "" && s.Node != node {
				continue
			}
			// Slices are Seq-ascending: the first node match is this
			// pool's LRU, so the scan moves to the next pool.
			if best == nil || s.Seq < best.Seq {
				best, bk, bi = s, k, i
			}
			break
		}
	}
	if best == nil {
		return nil
	}
	p.removeIdleLocked(bk, bi)
	p.counters.Evicted++
	return best
}

// FlushNode removes every idle slot parked on node (cordon, drain, node
// failure), returned Seq-ascending and counted as flushed. The caller
// owns the released reservations. When alsoClaims is true, claimed
// bindings on the node are dropped too (node failure: the victims are
// rescheduled or evicted, so their bindings die with the node) and the
// affected workload names are returned sorted.
func (p *Pool) FlushNode(node string, alsoClaims bool) (idle []*Slot, claimedWorkloads []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, slots := range p.idle {
		kept := slots[:0]
		for _, s := range slots {
			if s.Node == node {
				idle = append(idle, s)
				p.counters.Flushed++
			} else {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			delete(p.idle, k)
		} else {
			p.idle[k] = kept
		}
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].Seq < idle[j].Seq })
	if alsoClaims {
		for wl, s := range p.claimed {
			if s.Node == node {
				claimedWorkloads = append(claimedWorkloads, wl)
			}
		}
		for _, wl := range claimedWorkloads {
			delete(p.claimed, wl)
		}
		sort.Strings(claimedWorkloads)
	}
	return idle, claimedWorkloads
}

// FlushAll removes every idle slot (platform close), returned
// Seq-ascending and counted as flushed. Claimed bindings stay: their
// workloads are live until the cluster itself goes away.
func (p *Pool) FlushAll() []*Slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Slot
	for _, slots := range p.idle {
		out = append(out, slots...)
	}
	p.counters.Flushed += uint64(len(out))
	p.idle = make(map[key][]*Slot)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Reset discards all slots, bindings, and counters — state import.
// Warm slots are deliberately never persisted, so kill-restart recovery
// starts cold; Reset is what enforces that on the importing side.
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = make(map[key][]*Slot)
	p.claimed = make(map[string]*Slot)
	p.counters = Counters{}
	p.seq = 0
}

// Counters returns the lifecycle totals.
func (p *Pool) Counters() Counters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters
}

// IdleCount returns the total number of idle slots.
func (p *Pool) IdleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, slots := range p.idle {
		n += len(slots)
	}
	return n
}

// NodeCounts returns the per-node idle/claimed census.
func (p *Pool) NodeCounts() map[string]NodeCount {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]NodeCount)
	for _, slots := range p.idle {
		for _, s := range slots {
			c := out[s.Node]
			c.Idle++
			out[s.Node] = c
		}
	}
	for _, s := range p.claimed {
		c := out[s.Node]
		c.Claimed++
		out[s.Node] = c
	}
	return out
}

// Rows returns the per-(tenant, digest) pool table, sorted by tenant
// then digest. Pools with only claimed slots still appear.
func (p *Pool) Rows() []PoolRow {
	p.mu.Lock()
	defer p.mu.Unlock()
	acc := make(map[key]*PoolRow)
	for k, slots := range p.idle {
		acc[k] = &PoolRow{Tenant: k.tenant, Digest: k.digest, Idle: len(slots)}
	}
	for _, s := range p.claimed {
		k := key{s.Tenant, s.Digest}
		r := acc[k]
		if r == nil {
			r = &PoolRow{Tenant: k.tenant, Digest: k.digest}
			acc[k] = r
		}
		r.Claimed++
	}
	out := make([]PoolRow, 0, len(acc))
	for _, r := range acc {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Digest < out[j].Digest
	})
	return out
}

// Idle returns value snapshots of every idle slot, Seq-ascending — the
// invariant sweep's raw material.
func (p *Pool) Idle() []Slot {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Slot
	for _, slots := range p.idle {
		for _, s := range slots {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Claims returns value snapshots of every claimed binding, sorted by
// workload name.
func (p *Pool) Claims() []Claim {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Claim, 0, len(p.claimed))
	for wl, s := range p.claimed {
		out = append(out, Claim{Workload: wl, Slot: *s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Workload < out[j].Workload })
	return out
}
