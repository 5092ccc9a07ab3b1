package core

// Durable control-plane state: the platform side of internal/persist.
//
// With a Store installed (WithStore), every durable mutation the
// cluster applies — node joins and failures, cordon flips, placements,
// stops, quotas, clean admission verdicts — plus every incident is
// appended to the store from inside the lock that applied it, so the
// log order is exactly the state machine's serialization order. The
// appends are buffered group-commits: the deploy hot path never waits
// on an fsync.
//
// Periodically (every snapshotEvery records, and on graceful Close)
// the platform takes a compacted snapshot: it reads the store's
// LastLSN FIRST, then exports the cluster state — any mutation at or
// below that LSN was applied under a lock the export later acquires,
// so the snapshot can never miss a logged record; mutations that land
// after the LSN read may appear in both the snapshot and the replayed
// tail, which is safe because every record kind replays last-wins.
//
// Recovery runs inside New, before the mutation sink is installed (so
// replay is never re-logged): the cluster imports the recovered state
// and the incident ledger is seeded with its sequence floor. Images are not
// persisted, and the registry New builds is empty, so a recovered
// workload carries no image until its ref is pushed again; every read
// and reschedule path tolerates that. Deliberately NOT
// persisted: the CA and issued identities (a restarted daemon mints a
// fresh root; clients re-enroll), the EdgeNode infrastructure objects
// (TPM, firmware, volumes — re-provisioning re-attests them; AddEdgeNode
// on a recovered member skips the cluster re-registration so placements
// survive), spine metrics, and the admitted/rejected counters.

import (
	"errors"
	"fmt"
	"log"

	"genio/internal/orchestrator"
	"genio/internal/persist"
)

// defaultSnapshotEvery is the compaction cadence: one snapshot per this
// many appended records.
const defaultSnapshotEvery = 256

// WithStore installs a persistence backend (see internal/persist):
// control-plane mutations and incidents are logged through it, and New
// recovers whatever state it already holds before accepting traffic.
// The platform owns the store from here on — Close (snapshot + close)
// and Crash (flush-only close) release it.
func WithStore(s persist.Store) Option {
	return func(p *Platform) { p.store = s }
}

// WithSnapshotEvery overrides the snapshot cadence (records between
// compactions); n <= 0 keeps the default. Tests and simulations tighten
// it to exercise compaction.
func WithSnapshotEvery(n int) Option {
	return func(p *Platform) { p.snapEvery = n }
}

// recoverFromStore loads and imports persisted state; a no-op on an
// empty store. Runs before the mutation sink is installed.
func (p *Platform) recoverFromStore() error {
	st, err := p.store.Load()
	if err != nil {
		return err
	}
	if st == nil {
		return nil
	}
	p.Cluster.ImportState(st.Cluster)
	p.incSeq = st.IncidentSeq
	p.incidents = append(p.incidents, st.Incidents...)
	for _, i := range st.Incidents {
		p.incCounts[i.Source]++
		if i.Seq > p.incSeq {
			p.incSeq = i.Seq
		}
	}
	return nil
}

// appendMutation is the cluster's MutationSink: it converts and
// appends the record (buffered — no I/O on the caller's lock) and
// advances the snapshot cadence. An append failure leaves the live
// state authoritative but is never swallowed silently — the platform
// flips to a visible non-durable posture (see noteStoreFailure).
func (p *Platform) appendMutation(m orchestrator.Mutation) {
	if err := p.store.Append(recordFromMutation(m)); err != nil {
		p.noteStoreFailure(err)
		return
	}
	p.noteMutation()
}

// noteStoreFailure records the first persistence failure: the error
// becomes visible through StoreErr (and from there the healthz
// surface), is logged once, and raises a blocked incident — a daemon
// that keeps accepting deploys with zero durability must say so, or a
// later restart silently loses everything since the failure. ErrClosed
// during shutdown is the normal race of a late mutation against store
// release, not a durability failure.
func (p *Platform) noteStoreFailure(err error) {
	if errors.Is(err, persist.ErrClosed) || p.closed.Load() {
		return
	}
	p.storeFail.Do(func() {
		p.storeErr.Store(err)
		log.Printf("genio: persist store failed, control plane now NON-DURABLE: %v", err)
		// Off the caller's cluster lock; recordIncident publishes to the
		// spine and appends to the store too (which fails as well,
		// harmlessly — the Once already ran).
		go p.recordIncident(Incident{Source: "persist", Blocked: true,
			Detail: fmt.Sprintf("store failed, state no longer durable: %v", err)})
	})
}

// StoreErr reports the sticky persistence failure: nil while the store
// is healthy (or no store is configured), otherwise the first error
// that made the platform non-durable.
func (p *Platform) StoreErr() error {
	if v := p.storeErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// recordFromMutation maps an orchestrator mutation onto its log record.
func recordFromMutation(m orchestrator.Mutation) persist.Record {
	r := persist.Record{Kind: m.Kind, Node: m.Node, Cordoned: m.Cordoned,
		Name: m.Name, Tenant: m.Tenant, Verdict: m.Verdict, Workload: m.Workload, VMSeq: m.VMSeq}
	switch m.Kind {
	case orchestrator.MutNodeJoin:
		capacity := m.Capacity
		r.Capacity = &capacity
	case orchestrator.MutQuota:
		q := m.Quota
		r.Quota = &q
	}
	return r
}

// noteMutation advances the compaction cadence and, past the
// threshold, triggers a background snapshot. The threshold is adaptive:
// at least snapEvery records since the last snapshot, AND at least the
// last snapshot's own size (workloads + incidents, cached in snapSize —
// noteMutation runs inside cluster locks, so it must not query the
// cluster). The second term is what keeps snapshotting amortized O(1)
// per mutation: a snapshot costs O(state), so taking one per fixed
// record count over a growing cluster would be quadratic; requiring
// the replayable tail to reach the state's own size bounds total
// snapshot work at a constant factor of append work (the same policy
// as log-structured stores' AOF rewrite). TryLock keeps at most one
// snapshot in flight; a trigger that finds one running is skipped —
// the counter keeps growing, so the next mutation retries.
func (p *Platform) noteMutation() {
	every := int64(p.snapEvery)
	if every <= 0 {
		every = defaultSnapshotEvery
	}
	n := p.mutCount.Add(1)
	if n < every || n < p.snapSize.Load() {
		return
	}
	if !p.snapMu.TryLock() {
		return
	}
	p.mutCount.Store(0)
	go func() {
		defer p.snapMu.Unlock()
		_ = p.snapshotNow()
	}()
}

// SnapshotNow forces a compacted snapshot synchronously. Exported for
// tests and operational tooling; the cadence path calls the unexported
// body under the same lock.
func (p *Platform) SnapshotNow() error {
	if p.store == nil {
		return nil
	}
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	return p.snapshotNow()
}

// snapshotNow exports and persists the platform state. Callers hold
// p.snapMu. Order matters: LastLSN is read BEFORE the exports (see the
// package comment for why that can never miss a logged record).
func (p *Platform) snapshotNow() error {
	lsn0 := p.store.LastLSN()
	st := &persist.State{LSN: lsn0, Cluster: p.Cluster.ExportState()}
	p.incMu.RLock()
	st.Incidents = append([]Incident(nil), p.incidents...)
	st.IncidentSeq = p.incSeq
	p.incMu.RUnlock()
	p.snapSize.Store(int64(len(st.Cluster.Workloads) + len(st.Incidents)))
	return p.store.Snapshot(st)
}

// closeStore releases the store exactly once: a graceful close takes a
// final compacted snapshot first; a crash close only flushes the
// group-commit buffer (modelling the completed writes of a process
// killed mid-run) so recovery exercises log replay.
func (p *Platform) closeStore(snapshot bool) {
	if p.store == nil {
		return
	}
	p.storeClose.Do(func() {
		p.snapMu.Lock() // waits out an in-flight cadence snapshot
		defer p.snapMu.Unlock()
		if snapshot {
			_ = p.snapshotNow()
		} else {
			_ = p.store.Flush()
		}
		_ = p.store.Close()
	})
}

// Crash closes the platform the way kill -9 would: the event spine
// drains, but the store is released WITHOUT the shutdown snapshot —
// only group-committed log records survive, exactly the durable state
// an interrupted process leaves behind. The sim's kill-restart
// campaign and the crash-recovery tests reopen the same directory and
// must rebuild the platform from that log alone.
func (p *Platform) Crash() {
	p.closeSpine()
	p.closeStore(false)
}
