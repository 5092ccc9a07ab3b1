package orchestrator

// Warm-slot runtime pool integration (see internal/orchestrator/warmpool
// for the pool itself). When Settings.WarmPoolEnabled is on, stopping a
// workload whose VM would empty parks the VM as an idle warm slot on its
// node — capacity stays reserved, tenant quota and scheduler inputs are
// released — and a later deploy of the same (tenant, image digest)
// claims the slot in O(1) inside its reservation critical section,
// skipping scheduler filter/score and VM spin-up (the admission scans
// were already skipped by the verdict cache).
//
// The fast path never weakens admission. A claim happens only after the
// deploy's own RBAC check, image pull (signature re-verified per
// policy), admission chain, duplicate-name check, and quota charge —
// and is then revalidated at claim time: every cacheable controller
// must still hold a clean cached verdict for the digest, and the slot's
// node must still be alive and uncordoned (checked under the node lock
// that also commits the revival, so there is no window).
//
// Lifecycle wiring:
//
//   - Cordon (and drain's cordon) flushes the node's idle slots — their
//     reservations are released before any migration accounting runs.
//   - FailNode discards the node's idle slots and the claimed bindings
//     of its victims; both die with the node object.
//   - A deploy, drain migration, or failover reschedule that finds no
//     capacity evicts idle slots (pressure reclaim) and retries once,
//     so parked capacity never turns a placeable workload away.
//   - Parking evicts LRU slots on the node whenever utilization crosses
//     Settings.WarmPoolHighWatermarkPct, down to the low watermark.
//   - ImportState resets the pool: warm slots are deliberately not
//     persisted, so kill-restart recovery starts cold.
//
// Ownership: removing a slot from the pool is the linearization point.
// Whoever removes it (claim, evict, flush) owns — and must settle — the
// node-side capacity reservation. n.used is written under n.mu only.
//
// Every transition is published through the WarmEventSink (outside all
// locks) as slot.hit / slot.miss / slot.evict / slot.flush.

import (
	"errors"
	"fmt"

	"genio/internal/container"
	"genio/internal/orchestrator/warmpool"
)

// isCapacityErr reports whether a scheduling failure is a capacity
// shortfall (the only failure mode pressure-reclaiming warm slots can
// fix).
func isCapacityErr(err error) bool {
	var capErr *CapacityError
	return errors.As(err, &capErr)
}

// Warm-slot event kinds.
const (
	// WarmHit: a deploy claimed an idle slot (the O(1) fast path).
	WarmHit = "hit"
	// WarmMiss: warm pool enabled but no claimable slot for the digest.
	WarmMiss = "miss"
	// WarmEvict: an idle slot was discarded — watermark or capacity
	// pressure, or failed claim-time revalidation.
	WarmEvict = "evict"
	// WarmFlush: a node's idle slots were dropped wholesale — cordon,
	// drain, node failure, platform close.
	WarmFlush = "flush"
)

// Default eviction watermarks (percent of node capacity, max of the CPU
// and memory dimensions), applied when the Settings fields are zero.
const (
	DefaultWarmPoolHighWatermarkPct = 85
	DefaultWarmPoolLowWatermarkPct  = 60
)

// WarmEvent is one warm-slot lifecycle transition, reported through the
// WarmEventSink. The platform mirrors it onto the spine as a
// slot.<Kind> metric plus (for hit/evict/flush) an audit record.
type WarmEvent struct {
	Kind     string `json:"kind"`
	Node     string `json:"node,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Digest   string `json:"digest,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Count is the number of slots the event covers (flushes aggregate
	// per node; hits, misses, and evictions report 1).
	Count int `json:"count"`
	// Reason qualifies evictions and flushes: watermark | pressure |
	// revalidation | cordon | drain | node-fail | close.
	Reason string `json:"reason,omitempty"`
	AtMs   int64  `json:"atMs,omitempty"`
}

// WarmEventSink receives warm-slot lifecycle events. Like AuditSink it
// is invoked outside cluster locks on the operation's goroutine, so it
// may call back into read-side queries but should return quickly.
type WarmEventSink func(WarmEvent)

// SetWarmEventSink installs the warm-slot event sink (nil disables).
func (c *Cluster) SetWarmEventSink(fn WarmEventSink) {
	if fn == nil {
		c.warmEvents.Store(nil)
		return
	}
	c.warmEvents.Store(&fn)
}

// warmEnabled reports whether the warm pool is active.
func (c *Cluster) warmEnabled() bool {
	return c.Settings.WarmPoolEnabled
}

// warmWatermarks resolves the configured eviction watermarks, mapping
// zero values onto the defaults and clamping low <= high.
func (c *Cluster) warmWatermarks() (high, low int) {
	high, low = c.Settings.WarmPoolHighWatermarkPct, c.Settings.WarmPoolLowWatermarkPct
	if high <= 0 {
		high = DefaultWarmPoolHighWatermarkPct
	}
	if low <= 0 {
		low = DefaultWarmPoolLowWatermarkPct
	}
	if low > high {
		low = high
	}
	return high, low
}

// emitWarmEvents stamps and forwards warm events to the sink; a no-op
// without one. Never call while holding c.mu or a node lock.
func (c *Cluster) emitWarmEvents(evs []WarmEvent) {
	if len(evs) == 0 {
		return
	}
	fn := c.warmEvents.Load()
	if fn == nil {
		return
	}
	for _, ev := range evs {
		if ev.AtMs == 0 {
			ev.AtMs = c.nowMs()
		}
		(*fn)(ev)
	}
}

// exceedsPct reports whether used crosses pct percent of capacity on
// either resource dimension (a zero-capacity dimension never trips).
func exceedsPct(used, capacity Resources, pct int) bool {
	return used.CPUMilli*100 > capacity.CPUMilli*pct ||
		used.MemoryMB*100 > capacity.MemoryMB*pct
}

// deployDigest computes the image digest for one deploy call — once,
// shared by the admission verdict cache and the warm-slot claim. It
// returns "" when neither consumer needs it. Image.Digest itself is
// deliberately not memoized across calls: a later deploy of a tampered
// image object must re-hash and produce a different digest (and so miss
// both the verdict cache and the warm pool).
func (c *Cluster) deployDigest(img *container.Image) string {
	if c.warmEnabled() {
		return img.Digest()
	}
	if c.AdmissionCacheDisabled {
		return ""
	}
	c.adm.mu.RLock()
	cacheable := false
	for _, a := range c.adm.checks {
		if a.cacheable {
			cacheable = true
			break
		}
	}
	c.adm.mu.RUnlock()
	if !cacheable {
		return ""
	}
	return img.Digest()
}

// verdictsStillClean is the claim-time admission revalidation: every
// cacheable controller must still hold a clean cached verdict for the
// digest. Vacuously true with no cacheable controllers (the admission
// chain itself just ran for this very deploy). False whenever the
// verdict cache is administratively disabled — the fast path requires a
// *cached* clean verdict by contract.
func (c *Cluster) verdictsStillClean(digest string) bool {
	if c.AdmissionCacheDisabled {
		return false
	}
	c.adm.mu.RLock()
	defer c.adm.mu.RUnlock()
	for _, a := range c.adm.checks {
		if !a.cacheable {
			continue
		}
		if _, ok := c.adm.cache.Load(a.name + "\x00" + digest); !ok {
			return false
		}
	}
	return true
}

// claimWarmLocked attempts the O(1) fast path for one deploy: claim an
// idle warm slot of (tenant, digest) whose resources and isolation mode
// match the spec, revalidating at claim time. Callers hold c.mu (write)
// with the name and quota reservation already charged. On a hit the
// returned Workload is fully committed node-side (VM revived, tenant
// count bumped; n.used unchanged — the idle reservation became usage)
// and only the cluster-table insertion is left to the caller. The
// returned events (hit or miss, plus any revalidation evictions) must
// be emitted after c.mu is released.
func (c *Cluster) claimWarmLocked(spec WorkloadSpec, img *container.Image, digest string) (*Workload, []WarmEvent) {
	var evs []WarmEvent
	miss := func(reason string) (*Workload, []WarmEvent) {
		c.warm.RecordMiss()
		return nil, append(evs, WarmEvent{Kind: WarmMiss, Tenant: spec.Tenant,
			Digest: digest, Workload: spec.Name, Count: 1, Reason: reason})
	}
	if !c.verdictsStillClean(digest) {
		return miss("verdict revalidation")
	}
	hard := spec.Isolation == IsolationHard
	match := func(s *warmpool.Slot) bool {
		return s.Res == spec.Resources && s.Dedicated == hard
	}
	for {
		s := c.warm.TakeMRU(spec.Tenant, digest, match)
		if s == nil {
			return miss("no idle slot")
		}
		// Taking the slot made us its owner; validate the node under the
		// same lock that commits the revival, so a cordon can never slip
		// between the check and the placement.
		n, alive := c.nodes[s.Node]
		if !alive {
			// The node died and took the reservation with it (failover
			// discards these; this is the belt to that suspender).
			c.warm.RecordEvict(1)
			evs = append(evs, warmEvictEvent(s, "revalidation"))
			continue
		}
		n.mu.Lock()
		if n.cordoned.Load() {
			n.used.sub(s.Res)
			n.mu.Unlock()
			c.warm.RecordEvict(1)
			evs = append(evs, warmEvictEvent(s, "revalidation"))
			continue
		}
		vm := &VM{ID: s.VMID, Node: s.Node, Tenant: s.Tenant,
			Dedicated: s.Dedicated, Workloads: []string{spec.Name}}
		n.addVMLocked(vm)
		n.countLocked(c.tenantIDs[spec.Tenant], 1)
		n.mu.Unlock()
		c.warm.BindClaim(spec.Name, s)
		w := &Workload{Spec: spec, Image: img, Node: s.Node, VMID: s.VMID,
			PlacedAtMs: c.nowMs(), Strategy: "warm", digest: digest}
		evs = append(evs, WarmEvent{Kind: WarmHit, Node: s.Node, Tenant: spec.Tenant,
			Digest: digest, Workload: spec.Name, Count: 1})
		return w, evs
	}
}

// warmEvictEvent builds one eviction event for a slot.
func warmEvictEvent(s *warmpool.Slot, reason string) WarmEvent {
	return WarmEvent{Kind: WarmEvict, Node: s.Node, Tenant: s.Tenant,
		Digest: s.Digest, Count: 1, Reason: reason}
}

// parkOnStopLocked parks a stopping workload's VM as an idle warm slot
// when eligible: warm pool on, image digest known, node alive and
// uncordoned, and the workload is its VM's only occupant (the VM would
// be torn down otherwise — a shared VM with co-tenants keeps running
// and cannot be parked). Callers hold c.mu (write); the workload is
// already out of the table and its tenant quota released.
//
// Parking releases everything releaseLocked would EXCEPT node capacity:
// the VM leaves n.vms (so reads never see a VM without workloads), the
// tenant and shared-VM scheduler inputs drop, but n.used keeps the
// slot's reservation — that is what makes the later claim O(1) safe.
// After the park, the node's LRU idle slots are evicted while
// utilization sits above the high watermark, down to the low one.
// Returns false when ineligible (the caller releases normally).
func (c *Cluster) parkOnStopLocked(w *Workload, evs *[]WarmEvent) bool {
	if !c.warmEnabled() || w.Image == nil {
		return false
	}
	n, alive := c.nodes[w.Node]
	if !alive {
		return false
	}
	// The deploy-time digest describes what the VM runs; re-hashing the
	// image object here would only cost CPU (and, if the object were
	// tampered in memory after deploy, would mislabel the slot with
	// content the VM does not contain). Workloads recovered from
	// persisted state carry no digest — hash once for those.
	digest := w.digest
	if digest == "" {
		digest = w.Image.Digest()
	}
	name := w.Spec.Name
	n.mu.Lock()
	vm := n.vms[w.VMID]
	if n.cordoned.Load() || vm == nil || len(vm.Workloads) != 1 || vm.Workloads[0] != name {
		n.mu.Unlock()
		return false
	}
	n.countLocked(c.tenantIDs[w.Spec.Tenant], -1)
	n.dropVMLocked(vm)
	n.mu.Unlock()
	// Pool insertion happens outside n.mu (pool methods are never nested
	// inside node locks); c.mu (write) makes park-then-evict atomic
	// against every other pool mutator, which all hold c.mu too.
	c.warm.Park(warmpool.Slot{Tenant: w.Spec.Tenant, Digest: digest,
		Node: w.Node, VMID: w.VMID, Res: w.Spec.Resources,
		Dedicated: vm.Dedicated, IdleSinceMs: c.nowMs()})
	high, low := c.warmWatermarks()
	n.mu.Lock()
	over := exceedsPct(n.used.load(), n.capacity, high)
	n.mu.Unlock()
	for over {
		s := c.warm.EvictLRU(n.name)
		if s == nil {
			break // nothing left to evict; the usage is all real workloads
		}
		n.mu.Lock()
		n.used.sub(s.Res)
		over = exceedsPct(n.used.load(), n.capacity, low)
		n.mu.Unlock()
		*evs = append(*evs, warmEvictEvent(s, "watermark"))
	}
	return true
}

// flushWarmNode removes every idle slot parked on n and releases their
// reservations — the cordon/drain hook, called with the cordon flag
// already set so no new park can race in (parks re-check the flag under
// n.mu while holding c.mu write; this runs under c.mu read). Returns
// one aggregate flush event, or no events when the node had no slots.
func (c *Cluster) flushWarmNode(n *node, reason string) []WarmEvent {
	slots, _ := c.warm.FlushNode(n.name, false)
	if len(slots) == 0 {
		return nil
	}
	n.mu.Lock()
	for _, s := range slots {
		n.used.sub(s.Res)
	}
	n.mu.Unlock()
	return []WarmEvent{{Kind: WarmFlush, Node: n.name, Count: len(slots), Reason: reason}}
}

// reclaimWarmLocked evicts every idle slot in LRU order, releasing the
// reservations — the capacity-pressure backstop taken when a placement
// finds no fit: parked warm capacity must never turn a placeable
// workload away. Callers hold c.mu (read or write).
func (c *Cluster) reclaimWarmLocked() []WarmEvent {
	var evs []WarmEvent
	for {
		s := c.warm.EvictLRU("")
		if s == nil {
			return evs
		}
		if n, alive := c.nodes[s.Node]; alive {
			n.mu.Lock()
			n.used.sub(s.Res)
			n.mu.Unlock()
		}
		evs = append(evs, warmEvictEvent(s, "pressure"))
	}
}

// FlushWarmSlots drops every idle warm slot and releases the
// reservations — the platform calls this on Close, before the spine
// stops, so the flush events still publish. Reason tags the events.
func (c *Cluster) FlushWarmSlots(reason string) {
	var evs []WarmEvent
	c.mu.RLock()
	perNode := make(map[string]int)
	for _, s := range c.warm.FlushAll() {
		if n, alive := c.nodes[s.Node]; alive {
			n.mu.Lock()
			n.used.sub(s.Res)
			n.mu.Unlock()
		}
		perNode[s.Node]++
	}
	for _, n := range c.candidates { // name-sorted: deterministic event order
		if count := perNode[n.name]; count > 0 {
			evs = append(evs, WarmEvent{Kind: WarmFlush, Node: n.name, Count: count, Reason: reason})
		}
	}
	c.mu.RUnlock()
	c.emitWarmEvents(evs)
}

// WarmPools returns the per-(tenant, digest) warm pool table, sorted.
func (c *Cluster) WarmPools() []warmpool.PoolRow {
	return c.warm.Rows()
}

// WarmCounters returns the warm pool's lifecycle totals.
func (c *Cluster) WarmCounters() warmpool.Counters {
	return c.warm.Counters()
}

// WarmIdleSlots returns value snapshots of every idle warm slot,
// Seq-ascending — the simulator's warm-slots-never-leak invariant
// recomputes node accounting from these.
func (c *Cluster) WarmIdleSlots() []warmpool.Slot {
	return c.warm.Idle()
}

// WarmClaims returns value snapshots of every claimed-slot binding,
// sorted by workload name.
func (c *Cluster) WarmClaims() []warmpool.Claim {
	return c.warm.Claims()
}

// WarmSlotCount returns the number of idle warm slots.
func (c *Cluster) WarmSlotCount() int {
	return c.warm.IdleCount()
}

// warmDetail renders a compact per-pool summary for audit details.
func warmDetail(ev WarmEvent) string {
	switch ev.Kind {
	case WarmFlush:
		return fmt.Sprintf("%d slot(s): %s", ev.Count, ev.Reason)
	case WarmEvict:
		return ev.Reason
	default:
		return ""
	}
}

// WarmAudit translates a warm event into the audit-event vocabulary
// (kind "slot-hit" | "slot-evict" | "slot-flush"); the platform feeds
// these to its audit topic alongside the slot.* metrics.
func WarmAudit(ev WarmEvent) AuditEvent {
	return AuditEvent{Kind: "slot-" + ev.Kind, Workload: ev.Workload,
		Tenant: ev.Tenant, Node: ev.Node, Allowed: true,
		Detail: warmDetail(ev), AtMs: ev.AtMs}
}
