// Package persist is the control plane's pluggable durability layer: a
// small Store interface over an ordered log of control-plane mutations
// plus periodic compacted snapshots.
//
// The backend that ships is WAL (wal.go): an append-only JSON-line log
// on disk, group-committed in batches so the deploy hot path never waits
// on a per-record fsync, compacted by atomic snapshot files. Without a
// store the platform keeps no durable state at all.
//
// Records are keyed by the spine's existing audit-event vocabulary
// (node-join, node-cordon, place, workload-stop, quota,
// admission-verdict) plus the incident stream. Every record kind
// replays as an absolute last-wins operation — place is an upsert by
// name, stop a delete, cordon/quota a set, verdicts a grow-only set,
// incidents deduplicated by sequence number — so a snapshot that
// already contains the effect of a logged record converges when the
// record is replayed on top of it. That idempotence is what lets
// snapshots be taken concurrently with traffic: the snapshot's LSN is
// read before the state export, and any mutation that slips into the
// export afterwards is simply replayed again on recovery.
//
// Admission verdicts are kept per image digest at every layer: one
// admission-verdict record carries a digest and the controllers an
// admission run newly cleared for it (Verdict), and a
// snapshot maps each digest to its controllers (ClusterState.Cleared).
// Data directories written before that hold one record per
// (controller, digest) pair (Key, "controller\x00digest") and a flat
// key list in the snapshot (ClusterState.Verdicts). Both are still
// decoded and replayed into the per-digest form, and never written; a
// legacy key without the separator names no entry and is skipped.
package persist

import (
	"cmp"
	"errors"
	"slices"
	"strings"

	"genio/internal/orchestrator"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("persist: store closed")

// Record kinds. The control-plane kinds mirror
// orchestrator.Mutation's vocabulary verbatim; KindIncident carries the
// platform incident stream.
const (
	KindNodeJoin   = orchestrator.MutNodeJoin
	KindNodeRemove = orchestrator.MutNodeRemove
	KindNodeCordon = orchestrator.MutNodeCordon
	KindPlace      = orchestrator.MutPlace
	KindStop       = orchestrator.MutStop
	KindQuota      = orchestrator.MutQuota
	KindVerdict    = orchestrator.MutVerdict
	KindIncident   = "incident"
)

// Incident is one security-relevant occurrence recorded by the platform.
// persist sits below core in the import graph (core owns the Store), so
// the type is defined here and core.Incident is an alias of it.
type Incident struct {
	Source   string `json:"source"` // admission | sandbox | falco | pon | boot | persist
	Workload string `json:"workload,omitempty"`
	Detail   string `json:"detail"`
	Blocked  bool   `json:"blocked"` // true if the action was prevented
	// AtMs is the platform-clock time of the incident (zero unless the
	// platform has a clock).
	AtMs int64 `json:"atMs,omitempty"`
	// Seq is the platform-assigned record sequence number (1-based):
	// the ledger holds exactly Seq 1..n, in order.
	Seq uint64 `json:"seq,omitempty"`
}

// Record is one durable log entry. LSN is assigned by Append,
// monotonically from 1; exactly the fields relevant to Kind are set.
type Record struct {
	LSN  uint64 `json:"lsn"`
	Kind string `json:"kind"`
	// Node membership / cordon.
	Node     string                  `json:"node,omitempty"`
	Capacity *orchestrator.Resources `json:"capacity,omitempty"`
	Cordoned bool                    `json:"cordoned,omitempty"`
	// Placement (KindPlace) and stop (KindStop). VMSeq is the VM id
	// sequence at placement time: replay takes the maximum across place
	// records so the counter survives workloads that were later stopped.
	Workload *orchestrator.Workload `json:"workload,omitempty"`
	VMSeq    int64                  `json:"vmSeq,omitempty"`
	Name     string                 `json:"name,omitempty"`
	// Quota (KindQuota).
	Tenant string                  `json:"tenant,omitempty"`
	Quota  *orchestrator.Resources `json:"quota,omitempty"`
	// Clean admission verdicts (KindVerdict): one commit's digest and
	// controllers. Key is the one "controller\x00digest" pair older logs
	// carry instead; it is replayed, never written by the platform.
	Key     string                      `json:"key,omitempty"`
	Verdict *orchestrator.VerdictCommit `json:"verdict,omitempty"`
	// Incident payload (KindIncident).
	Incident *Incident `json:"incident,omitempty"`
}

// State is everything a restarted control plane needs: the cluster's
// replayable state plus the incident ledger. LSN is the log position
// the snapshot covers — recovery replays only records beyond it.
type State struct {
	LSN     uint64                    `json:"lsn"`
	Cluster orchestrator.ClusterState `json:"cluster"`
	// Incidents is the full incident ledger, ordered by Seq.
	Incidents []Incident `json:"incidents,omitempty"`
	// IncidentSeq is the sequence floor for new incidents after
	// recovery (>= the max Seq in Incidents).
	IncidentSeq uint64 `json:"incidentSeq,omitempty"`
}

// Store is the persistence seam the platform writes through. Append is
// called on hot paths inside cluster locks: implementations must
// buffer and return immediately, deferring durability to a group
// commit (Flush is the explicit durability barrier). Snapshot persists
// a compacted state and lets the backend drop records the snapshot
// covers; Load returns the recovered state (snapshot plus replayed
// tail), or nil when the store holds nothing. Each Load builds a fresh
// state that the caller owns and may hand on: the platform gives its
// workload rows to Cluster.ImportState, which keeps them. Close
// flushes and releases resources without taking an implicit snapshot —
// the platform decides whether a shutdown is graceful (snapshot) or a
// simulated crash (flush only).
type Store interface {
	Append(rec Record) error
	Flush() error
	// LastLSN reports the newest assigned LSN (0 before any append).
	// Read it BEFORE exporting state for a snapshot: mutations are
	// logged inside the lock that applies them, so state exported
	// after the read is guaranteed to contain every record at or below
	// it.
	LastLSN() uint64
	Snapshot(st *State) error
	Load() (*State, error)
	Close() error
}

// splitVerdictKey splits a legacy verdict key, "controller\x00digest",
// at its last NUL. It is false on a key with no NUL or an empty digest,
// which names no cache entry.
func splitVerdictKey(key string) (controller, digest string, ok bool) {
	i := strings.LastIndexByte(key, 0)
	if i < 0 || i == len(key)-1 {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}

// apply replays records (an LSN-ordered suffix of the log) onto base,
// returning the recovered state. Records at or below base.LSN are
// skipped; everything else applies last-wins, so overlap between the
// snapshot and the tail is harmless. base is never written.
//
// The result is in the order snapshots are written in: nodes and
// workloads by name, incidents by Seq. Nodes and workloads replay in
// place over one copy of base's rows (see table), so a snapshot that
// is already in name order, with a tail that only adds names after
// it, comes back without a sort.
func apply(base *State, recs []Record) *State {
	var joins, places int
	for i := range recs {
		switch recs[i].Kind {
		case KindNodeJoin:
			joins++
		case KindPlace:
			places++
		}
	}
	nodes := newTable(base.Cluster.Nodes, joins, func(ns *orchestrator.NodeState) string { return ns.Name })
	wls := newTable(base.Cluster.Workloads, places, func(w *orchestrator.Workload) string { return w.Spec.Name })
	quotas := make(map[string]orchestrator.Resources, len(base.Cluster.Quotas))
	for t, q := range base.Cluster.Quotas {
		quotas[t] = q
	}
	// verdicts maps a digest to its sorted, duplicate-free controllers.
	verdicts := make(map[string][]string, len(base.Cluster.Cleared))
	cleared := func(digest string, names ...string) {
		if digest == "" {
			return
		}
		if merged, added := orchestrator.MergeVerdicts(verdicts[digest], names); added != nil {
			verdicts[digest] = merged
		}
	}
	for digest, names := range base.Cluster.Cleared {
		cleared(digest, names...)
	}
	for _, k := range base.Cluster.Verdicts {
		if name, digest, ok := splitVerdictKey(k); ok {
			cleared(digest, name)
		}
	}
	incidents := append([]Incident(nil), base.Incidents...)
	seenSeq := make(map[uint64]struct{}, len(incidents))
	for _, i := range incidents {
		seenSeq[i.Seq] = struct{}{}
	}

	st := &State{LSN: base.LSN, IncidentSeq: base.IncidentSeq}
	st.Cluster.VMSeq = base.Cluster.VMSeq
	for i := range recs {
		r := &recs[i]
		if r.LSN <= base.LSN {
			continue
		}
		if r.LSN > st.LSN {
			st.LSN = r.LSN
		}
		switch r.Kind {
		case KindNodeJoin:
			ns := orchestrator.NodeState{Name: r.Node}
			if r.Capacity != nil {
				ns.Capacity = *r.Capacity
			}
			nodes.put(&ns)
		case KindNodeRemove:
			nodes.del(r.Node)
		case KindNodeCordon:
			if ns := nodes.get(r.Node); ns != nil {
				ns.Cordoned = r.Cordoned
			}
		case KindPlace:
			if r.Workload != nil {
				wls.put(r.Workload)
			}
			if r.VMSeq > st.Cluster.VMSeq {
				st.Cluster.VMSeq = r.VMSeq
			}
		case KindStop:
			wls.del(r.Name)
		case KindQuota:
			if r.Quota != nil {
				quotas[r.Tenant] = *r.Quota
			}
		case KindVerdict:
			if r.Verdict != nil {
				cleared(r.Verdict.Digest, r.Verdict.Controllers...)
			}
			if name, digest, ok := splitVerdictKey(r.Key); ok {
				cleared(digest, name)
			}
		case KindIncident:
			if r.Incident == nil {
				break
			}
			if _, dup := seenSeq[r.Incident.Seq]; dup {
				break
			}
			seenSeq[r.Incident.Seq] = struct{}{}
			incidents = append(incidents, *r.Incident)
			if r.Incident.Seq > st.IncidentSeq {
				st.IncidentSeq = r.Incident.Seq
			}
		}
	}

	st.Cluster.Nodes = nodes.sorted()
	st.Cluster.Workloads = wls.sorted()
	if len(quotas) > 0 {
		st.Cluster.Quotas = quotas
	}
	if len(verdicts) > 0 {
		st.Cluster.Cleared = verdicts
	}
	slices.SortFunc(incidents, func(a, b Incident) int { return cmp.Compare(a.Seq, b.Seq) })
	st.Incidents = incidents
	for _, i := range incidents {
		if i.Seq > st.IncidentSeq {
			st.IncidentSeq = i.Seq
		}
	}
	return st
}

// table is a name-keyed set of rows that a replay edits in place: put
// overwrites the named row's slot or appends a new one, and del
// tombstones the slot, which a later put of the name revives. Each row
// is copied once on the way in and at most once on the way out.
type table[T any] struct {
	rows  []T
	dead  []bool // dead[i]: rows[i] is tombstoned
	ndead int
	slot  map[string]int
	name  func(*T) string
}

// newTable copies base into a table with room for extra more rows.
// A name base repeats keeps its last row, as a replay of base would.
func newTable[T any](base []T, extra int, name func(*T) string) *table[T] {
	n := len(base) + extra
	t := &table[T]{rows: make([]T, 0, n), dead: make([]bool, 0, n),
		slot: make(map[string]int, n), name: name}
	for i := range base {
		t.put(&base[i])
	}
	return t
}

// get returns the live row of that name, or nil.
func (t *table[T]) get(name string) *T {
	if i, ok := t.slot[name]; ok && !t.dead[i] {
		return &t.rows[i]
	}
	return nil
}

func (t *table[T]) put(v *T) {
	name := t.name(v)
	if i, ok := t.slot[name]; ok {
		t.rows[i] = *v
		if t.dead[i] {
			t.dead[i] = false
			t.ndead--
		}
		return
	}
	t.slot[name] = len(t.rows)
	t.rows = append(t.rows, *v)
	t.dead = append(t.dead, false)
}

func (t *table[T]) del(name string) {
	if i, ok := t.slot[name]; ok && !t.dead[i] {
		t.dead[i] = true
		t.ndead++
	}
}

// sorted returns the live rows in name order, never nil. Rows whose
// slots are already in name order with no tombstones are returned as
// they are; otherwise an index permutation is sorted, not the rows,
// and each live row is copied once into place.
func (t *table[T]) sorted() []T {
	inOrder, prev := true, -1
	for i := range t.rows {
		if t.dead[i] {
			continue
		}
		if prev >= 0 && t.name(&t.rows[prev]) >= t.name(&t.rows[i]) {
			inOrder = false
			break
		}
		prev = i
	}
	if inOrder && t.ndead == 0 {
		return t.rows
	}
	perm := make([]int, 0, len(t.rows)-t.ndead)
	for i := range t.rows {
		if !t.dead[i] {
			perm = append(perm, i)
		}
	}
	if !inOrder {
		slices.SortFunc(perm, func(a, b int) int {
			return strings.Compare(t.name(&t.rows[a]), t.name(&t.rows[b]))
		})
	}
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = t.rows[p]
	}
	return out
}
