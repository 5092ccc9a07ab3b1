package orchestrator

// Node lifecycle: cordon marks a node unschedulable (the scheduler's
// cordon filter excludes it from every subsequent placement), uncordon
// reverses that, and drain live-migrates a node's workloads onto the
// rest of the fleet through the scheduler — the operational path for
// maintenance, firmware rollouts, and decommissioning an OLT without
// dropping tenant workloads the way FailNode's crash path does.
//
// Drain's state machine:
//
//	        Drain(ctx)
//	            |
//	        [cordon]             (skipped when already cordoned)
//	            |
//	   +--> pick lowest-named workload on the node
//	   |        |- none left --> completed   (node stays cordoned)
//	   |        |
//	   |    schedule on another node ---- no fit --> failed (rollback)
//	   |        |
//	   |    migrate (atomic under the cluster write lock)
//	   |        |
//	   +---- ctx live? ------------- ctx done --> cancelled (rollback)
//
// Rollback restores the node's schedulable state: if Drain itself
// applied the cordon and still owns it, cancellation or failure
// uncordons. A node the operator cordoned beforehand — or explicitly
// cordoned/uncordoned mid-drain, which claims the cordon state away
// from the drain — is left exactly as the operator set it. Completed
// migrations are never reversed — the workloads are already live on
// their new nodes — and every migration is atomic, so cancellation can
// never leak capacity or strand a workload between nodes (the sim's
// no-drain-leaks-capacity invariant audits exactly this).

import (
	"context"
	"fmt"
	"sort"
)

// Cordon marks a node unschedulable: running workloads stay, new
// placements (deploy, failover, drain targets) skip it. Idempotent;
// emits a node-cordon audit record on the transition.
func (c *Cluster) Cordon(name string) error {
	return c.setCordon(name, true, "")
}

// Uncordon returns a node to the schedulable pool. Idempotent; emits a
// node-uncordon audit record on the transition.
func (c *Cluster) Uncordon(name string) error {
	return c.setCordon(name, false, "")
}

// setCordon flips a node's cordon flag, auditing actual transitions.
// Every explicit call — transition or idempotent no-op — claims the
// cordon state for the operator: a drain rollback never undoes it.
func (c *Cluster) setCordon(name string, cordoned bool, detail string) error {
	c.mu.RLock()
	n, ok := c.nodes[name]
	c.mu.RUnlock()
	if !ok {
		return &NodeNotFoundError{Node: name}
	}
	n.mu.Lock()
	changed := n.cordoned.Load() != cordoned
	n.cordoned.Store(cordoned)
	n.cordonOwner = 0
	n.cordonEpoch++
	if changed {
		c.mutate(Mutation{Kind: MutNodeCordon, Node: name, Cordoned: cordoned})
	}
	n.mu.Unlock()
	// A cordoned node holds no warm capacity: flush its idle slots and
	// release their reservations, with the flag already set so no new
	// park can land (parks re-check it). The cluster read lock excludes
	// the park-then-evict window of a concurrent Stop, which runs under
	// the write lock.
	var warmEvs []WarmEvent
	if cordoned {
		c.mu.RLock()
		warmEvs = c.flushWarmNode(n, "cordon")
		c.mu.RUnlock()
	}
	if changed {
		kind := "node-cordon"
		if !cordoned {
			kind = "node-uncordon"
		}
		c.auditEvent(AuditEvent{Kind: kind, Node: name, Allowed: true, Detail: detail})
	}
	c.emitWarmEvents(warmEvs)
	return nil
}

// Drain phases, in DrainEvent.Phase.
const (
	// DrainCordoned: drain applied the cordon (absent when the node was
	// already cordoned).
	DrainCordoned = "cordoned"
	// DrainMigrated: one workload moved to its new node.
	DrainMigrated = "migrated"
	// DrainCompleted: the node is empty; it stays cordoned.
	DrainCompleted = "completed"
	// DrainCancelled: ctx ended mid-drain; schedulable state rolled back.
	DrainCancelled = "cancelled"
	// DrainFailed: a workload fit nowhere; schedulable state rolled back.
	DrainFailed = "failed"
)

// DrainEvent is one observable step of a drain — published by the
// platform on the spine's node.drain topic and mirrored to the observer
// passed to DrainObserved.
type DrainEvent struct {
	Node  string `json:"node"`
	Phase string `json:"phase"`
	// Workload/Target/Score describe a migration (Phase == migrated):
	// which workload moved where, at what scheduler score.
	Workload string  `json:"workload,omitempty"`
	Target   string  `json:"target,omitempty"`
	Score    float64 `json:"score,omitempty"`
	Detail   string  `json:"detail,omitempty"`
	// AtMs is the cluster-clock time (zero without a clock).
	AtMs int64 `json:"atMs,omitempty"`
}

// DrainResult reports a drain's outcome: what moved, what (on
// cancellation or failure) stayed behind, and whether the drain ran to
// completion.
type DrainResult struct {
	Node string `json:"node"`
	// Migrated lists the workloads moved off the node, in migration
	// order.
	Migrated []string `json:"migrated"`
	// Remaining lists workloads still on the node when the drain ended:
	// the unevacuated rest on cancellation or failure, and on completion
	// any post-cordon arrivals (normally none — they exist only if the
	// node was reopened mid-drain by an operator uncordon or a
	// concurrent drain's rollback).
	Remaining []string `json:"remaining,omitempty"`
	// Cancelled is true when ctx ended the drain.
	Cancelled bool `json:"cancelled,omitempty"`
	// AtMs is the cluster-clock time the drain finished (zero without a
	// clock).
	AtMs int64 `json:"atMs,omitempty"`
}

// Drain cordons the node (if not already cordoned) and live-migrates
// the workloads present at cordon time onto the rest of the fleet
// through the scheduler, one atomic migration at a time, lowest
// workload name first. Workloads that land afterwards (possible only
// while the node is reopened mid-drain — an operator uncordon or a
// concurrent drain's rollback) are not chased — the bound guarantees
// termination under sustained traffic — but are reported in
// DrainResult.Remaining. On success the initial set is evacuated and
// the node stays cordoned (uncordon it to reuse it; fail it to remove
// it).
//
// Cancelling ctx stops the drain at the next migration boundary:
// completed migrations stay (the workloads are live elsewhere), the
// rest never move, the cordon applied by this drain is rolled back, and
// the error is a *CancelledError (stage "drain") returned alongside the
// partial DrainResult. A workload that fits nowhere aborts the same way
// with a *DrainError wrapping the scheduling failure. Capacity and
// quota accounting balance in every outcome.
func (c *Cluster) Drain(ctx context.Context, name string) (*DrainResult, error) {
	return c.DrainObserved(ctx, name, nil)
}

// DrainObserved is Drain with a progress observer: observe (when
// non-nil) is called on the draining goroutine, outside cluster locks,
// for every DrainEvent. The platform wires the spine's node.drain
// publisher in here.
func (c *Cluster) DrainObserved(ctx context.Context, name string, observe func(DrainEvent)) (*DrainResult, error) {
	c.mu.RLock()
	n, ok := c.nodes[name]
	c.mu.RUnlock()
	if !ok {
		return nil, &NodeNotFoundError{Node: name}
	}
	emit := func(ev DrainEvent) {
		ev.Node = name
		if ev.AtMs == 0 {
			ev.AtMs = c.nowMs()
		}
		if observe != nil {
			observe(ev)
		}
	}

	// Cordon first so no new placement lands mid-drain, marking the
	// cordon with this drain's id: rollback lifts it only while we still
	// own it — an explicit operator Cordon/Uncordon at any point, a
	// completed drain, or another drain's own cordon (all of which
	// rewrite the owner) takes precedence.
	drainID := c.drainSeq.Add(1)
	n.mu.Lock()
	wasCordoned := n.cordoned.Load()
	n.cordoned.Store(true)
	if !wasCordoned {
		n.cordonOwner = drainID
		c.mutate(Mutation{Kind: MutNodeCordon, Node: name, Cordoned: true})
	}
	startEpoch := n.cordonEpoch
	n.mu.Unlock()
	// Flush the node's warm slots before any migration accounting: the
	// cordon is set, so the idle reservations are unreachable until an
	// explicit uncordon, and the drain's capacity story must not count
	// them. (Idempotent when the node was already cordoned and flushed.)
	c.mu.RLock()
	warmEvs := c.flushWarmNode(n, "drain")
	c.mu.RUnlock()
	if !wasCordoned {
		c.auditEvent(AuditEvent{Kind: "node-cordon", Node: name, Allowed: true, Detail: "drain"})
		emit(DrainEvent{Phase: DrainCordoned})
	}
	c.emitWarmEvents(warmEvs)
	// The drain evacuates the workload set present at cordon time and
	// nothing more: if the operator uncordons mid-drain and fresh
	// traffic lands on the node, the newcomers are the operator's
	// choice, not ours to chase — and the bound guarantees termination
	// under sustained deploys.
	initial := &drainCursor{names: c.workloadsOn(name)}
	res := &DrainResult{Node: name}
	// isCurrent verifies the node object we are draining is still the
	// one the name maps to: a node that failed (and possibly rejoined
	// under the same name — a different object) mid-drain is not ours
	// to cordon, scan, or roll back.
	isCurrent := func() bool {
		c.mu.RLock()
		cur := c.nodes[name]
		c.mu.RUnlock()
		return cur == n
	}
	rollback := func(why string) {
		if !isCurrent() {
			return // our object is orphaned; its flags are moot
		}
		n.mu.Lock()
		undo := n.cordoned.Load() && n.cordonOwner == drainID
		if undo {
			n.cordoned.Store(false)
			n.cordonOwner = 0
			c.mutate(Mutation{Kind: MutNodeCordon, Node: name, Cordoned: false})
		}
		n.mu.Unlock()
		if undo {
			c.auditEvent(AuditEvent{Kind: "node-uncordon", Node: name, Allowed: true,
				Detail: "drain rollback: " + why})
		}
	}
	// vanished ends the drain when the node object disappeared from
	// under it: the failover that removed it already rescheduled or
	// evicted everything that was left, so there is nothing to migrate
	// and nothing of ours to roll back — and the reborn namesake, if
	// any, must stay untouched.
	vanished := func() (*DrainResult, error) {
		res.AtMs = c.nowMs()
		c.auditEvent(AuditEvent{Kind: "node-drain", Node: name,
			Detail: fmt.Sprintf("node failed mid-drain: %d migrated", len(res.Migrated))})
		emit(DrainEvent{Phase: DrainFailed, Detail: "node failed mid-drain"})
		return res, &NodeNotFoundError{Node: name}
	}

	for {
		// A node already clear of its initial set completes the drain
		// even if ctx just died: the evacuation is done, and reporting
		// it cancelled would roll back the cordon on a node the operator
		// must keep fenced.
		c.mu.RLock()
		empty := c.nextVictimLocked(name, initial) == nil
		c.mu.RUnlock()
		if empty {
			break
		}
		if err := ctx.Err(); err != nil {
			res.Cancelled = true
			res.Remaining = c.workloadsOn(name)
			res.AtMs = c.nowMs()
			rollback("cancelled")
			cerr := &CancelledError{Stage: "drain", Err: err}
			c.auditEvent(AuditEvent{Kind: "node-drain", Node: name,
				Detail: fmt.Sprintf("cancelled: %d migrated, %d remaining", len(res.Migrated), len(res.Remaining))})
			emit(DrainEvent{Phase: DrainCancelled, Detail: cerr.Error()})
			return res, cerr
		}

		moved, migEvs, gone, derr := c.migrateNext(name, n, initial)
		c.emitWarmEvents(migEvs)
		if gone {
			return vanished()
		}
		if derr != nil {
			res.Remaining = c.workloadsOn(name)
			res.AtMs = c.nowMs()
			rollback(derr.Err.Error())
			c.auditEvent(AuditEvent{Kind: "node-drain", Node: name,
				Detail: fmt.Sprintf("failed at %s: %d migrated, %d remaining",
					derr.Workload, len(res.Migrated), len(res.Remaining))})
			emit(DrainEvent{Phase: DrainFailed, Workload: derr.Workload, Detail: derr.Error()})
			return res, derr
		}
		if moved == nil {
			break // the initial set is clear
		}
		res.Migrated = append(res.Migrated, moved.Workload)
		c.auditEvent(AuditEvent{Kind: "drain-migrate", Workload: moved.Workload,
			Tenant: moved.Tenant, Node: moved.Node, Allowed: true,
			Detail: fmt.Sprintf("from %s strategy=%s score=%.3f", name, moved.Strategy, moved.Score)})
		emit(DrainEvent{Phase: DrainMigrated, Workload: moved.Workload,
			Target: moved.Node, Score: moved.Score})
	}

	// The node must still be ours to report drained-and-cordoned — if it
	// failed (and possibly rejoined) while the last workloads left, the
	// failover already owns the story.
	if !isCurrent() {
		return vanished()
	}
	// Completion makes the cordon permanent (sticky until an explicit
	// Uncordon): the owner resets so NO drain's rollback may lift it
	// afterwards, and — unless the operator explicitly touched the
	// cordon while we drained (epoch moved) — the flag itself is
	// re-asserted, in case a concurrent drain's cancellation rollback
	// lifted the cordon we were riding mid-flight. "This node is empty
	// and cordoned" is the strongest statement standing; only explicit
	// operator intent overrides it.
	n.mu.Lock()
	if n.cordonEpoch == startEpoch && !n.cordoned.Load() {
		n.cordoned.Store(true)
		c.mutate(Mutation{Kind: MutNodeCordon, Node: name, Cordoned: true})
	}
	n.cordonOwner = 0
	n.mu.Unlock()
	// Completion evacuated the initial set; anything else on the node
	// arrived after the cordon (an operator uncordon or a concurrent
	// drain's rollback reopened it mid-flight) and is reported, not
	// silently omitted — the operator must not decommission a node that
	// re-hosts workloads.
	res.Remaining = c.workloadsOn(name)
	res.AtMs = c.nowMs()
	c.auditEvent(AuditEvent{Kind: "node-drain", Node: name, Allowed: true,
		Detail: fmt.Sprintf("%d migrated, %d post-cordon arrivals remain", len(res.Migrated), len(res.Remaining))})
	emit(DrainEvent{Phase: DrainCompleted, Detail: fmt.Sprintf("%d migrated", len(res.Migrated))})
	return res, nil
}

// drainCursor walks a drain's initial workload set, name-sorted, so
// finding the next victim costs the names it skips rather than a pass
// over every workload in the cluster. Names before next have been
// migrated or were off the node when the cursor passed them; swept
// records that the cursor has already gone back once to pick up an
// initial workload that returned to the node behind it (stopped and
// redeployed there after an uncordon).
type drainCursor struct {
	names []string
	next  int
	swept bool
}

// nextVictimLocked returns the drain's next victim — the first initial
// workload at or after the cursor still on the node, then, once, the
// first from the start — or nil when the initial set is clear. The
// cursor stays on the returned name, so asking again before it moves
// returns it again. Callers hold c.mu (read or write).
func (c *Cluster) nextVictimLocked(node string, cur *drainCursor) *Workload {
	for {
		for ; cur.next < len(cur.names); cur.next++ {
			if w, ok := c.workloads[cur.names[cur.next]]; ok && w.Node == node {
				return w
			}
		}
		if cur.swept {
			return nil
		}
		cur.swept, cur.next = true, 0
	}
}

// migrateNext moves the drain's next victim (see nextVictimLocked) — the
// lowest-named initial workload still on the node, returners behind the
// cursor last — off the node in one atomic step under the cluster write
// lock:
// schedule on the rest of the fleet (the node is cordoned, so the
// scheduler excludes it), rewrite the live workload, release the
// source placement. gone reports that the name no longer maps to own —
// the node failed mid-drain (and a namesake may have replaced it), so
// there is nothing of ours left to migrate. Returns (nil, false, nil)
// when the initial set is clear, a *DrainError when the next workload
// fits nowhere.
func (c *Cluster) migrateNext(name string, own *node, initial *drainCursor) (moved *movedWorkload, warmEvs []WarmEvent, gone bool, derr *DrainError) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nodes[name] != own {
		return nil, nil, true, nil
	}
	w := c.nextVictimLocked(name, initial)
	if w == nil {
		return nil, nil, false, nil
	}
	// The source node is excluded by name, not just by its cordon flag:
	// a concurrent Uncordon must not let the drain migrate a workload
	// back onto the node it is evacuating.
	sched, _, err := c.scheduleExcluding(w.Spec, w.Image, name)
	if err != nil && c.warmEnabled() && isCapacityErr(err) {
		// Warm reservations on the rest of the fleet are reclaimable
		// capacity: evict every idle slot (LRU order) and retry once
		// before declaring the drain stuck.
		if warmEvs = c.reclaimWarmLocked(); len(warmEvs) > 0 {
			sched, _, err = c.scheduleExcluding(w.Spec, w.Image, name)
		}
	}
	if err != nil {
		return nil, warmEvs, false, &DrainError{Node: name, Workload: w.Spec.Name, Err: err}
	}
	old := *w
	*w = *sched
	c.mutatePlace(w)
	own.mu.Lock()
	own.releaseLocked(old.Spec.Name, old.VMID, old.Spec.Resources, c.tenantIDs[old.Spec.Tenant])
	own.mu.Unlock()
	// A migrated workload no longer lives in the warm slot it may have
	// claimed at deploy time — sever the binding so pool bookkeeping
	// follows the workload's real placement.
	c.warm.DropClaimed(old.Spec.Name)
	// Tenant quota usage is unchanged: the same spec keeps running, it
	// just lives on another node now.
	return &movedWorkload{Workload: w.Spec.Name, Tenant: w.Spec.Tenant,
		Node: w.Node, Strategy: w.Strategy, Score: w.Score}, warmEvs, false, nil
}

// workloadsOn lists the workloads currently on a node, sorted (the
// drain's Remaining report).
func (c *Cluster) workloadsOn(name string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for _, w := range c.workloads {
		if w.Node == name {
			out = append(out, w.Spec.Name)
		}
	}
	sort.Strings(out)
	return out
}
