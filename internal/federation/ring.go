// Package federation routes deployments across many orchestrator
// clusters (regions / OLT sites) through a three-stage hierarchy:
// a per-tenant region filter (data-residency pinning, honored as a hard
// constraint), a consistent-hash ring over the eligible clusters keyed
// by (tenant, image digest) with bounded-load overflow, and finally the
// existing per-cluster filter/score scheduler, which stays untouched.
//
// The ring gives every (tenant, image) pair a stable home cluster, so
// repeat deploys of a pair land together, while the bounded-load rule
// keeps any single cluster from absorbing a hot key: a cluster already
// past its load bound passes the deploy to the next ring position. Membership changes move only the minimal key
// range (the classic consistent-hashing property), which the ring tests
// pin numerically.
package federation

import (
	"fmt"
	"sort"
)

// fnv-1a 64-bit parameters; the ring hashes keys inline so the hot-path
// lookup allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashKey folds (tenant, digest) into one 64-bit FNV-1a hash without
// concatenating the strings. A zero separator byte keeps the pair
// injective over the concatenation boundary ("ab","c" vs "a","bc").
func hashKey(tenant, digest string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= fnvPrime64
	}
	h *= fnvPrime64 // separator: fold in a zero byte
	for i := 0; i < len(digest); i++ {
		h ^= uint64(digest[i])
		h *= fnvPrime64
	}
	return h
}

// point is one virtual node on the ring: a hash position owned by a
// member (indexed into Ring.members, so points stay pointer-free).
type point struct {
	hash   uint64
	member int32
}

// Ring is a consistent-hash ring with virtual nodes. Add rebuilds the
// point set (allocation there is fine — membership changes are rare
// control-plane events); Owner and Walk are read-only and safe for
// concurrent use with each other, so the federation publishes a fresh
// ring per membership change and readers never lock.
type Ring struct {
	replicas int
	members  []string
	points   []point
}

// DefaultReplicas is the virtual-node count per member. 128 points per
// cluster keeps the per-member share of a 10k-key sample within a few
// percent of fair, which is what the minimal-disruption test budgets.
const DefaultReplicas = 128

// NewRing builds an empty ring. replicas <= 0 takes DefaultReplicas.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas}
}

// Add inserts a member (no-op when already present). The new member's
// virtual nodes claim only their own arcs: every key that does not land
// on one of them keeps its previous owner.
func (r *Ring) Add(member string) {
	for _, m := range r.members {
		if m == member {
			return
		}
	}
	r.members = append(r.members, member)
	sort.Strings(r.members)
	r.rebuild()
}

// rebuild recomputes the sorted point set from the member list. Point
// positions depend only on (member, replica), so members keep their
// virtual nodes across unrelated membership changes — the property that
// bounds disruption.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for mi, m := range r.members {
		for v := 0; v < r.replicas; v++ {
			h := hashKey(m, fmt.Sprintf("vnode-%d", v))
			r.points = append(r.points, point{hash: h, member: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// search returns the index of the first point at or after h, wrapping
// to 0 past the end. Hand-rolled binary search keeps the hot path free
// of closure allocations.
func (r *Ring) search(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		return 0
	}
	return lo
}

// Owner returns the member owning (tenant, digest) — the first virtual
// node at or clockwise of the key's hash. Zero allocations: this is the
// per-deploy hot path, pinned by TestRingLookupZeroAlloc and
// BenchmarkRingLookup.
func (r *Ring) Owner(tenant, digest string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	p := r.points[r.search(hashKey(tenant, digest))]
	return r.members[p.member], true
}

// Walk visits the distinct members in ring order starting at the key's
// owner, until visit returns false or every member has been seen. This
// is the bounded-load overflow order: position i+1 is where a deploy
// goes when position i is past its bound or out of capacity. Rings of
// up to 64 members walk allocation-free (a bitmask tracks visited
// members); larger rings fall back to a map.
func (r *Ring) Walk(tenant, digest string, visit func(member string) bool) {
	if len(r.points) == 0 {
		return
	}
	start := r.search(hashKey(tenant, digest))
	remaining := len(r.members)
	if remaining <= 64 {
		var seen uint64
		for i := 0; i < len(r.points) && remaining > 0; i++ {
			p := r.points[(start+i)%len(r.points)]
			if seen&(1<<uint(p.member)) != 0 {
				continue
			}
			seen |= 1 << uint(p.member)
			remaining--
			if !visit(r.members[p.member]) {
				return
			}
		}
		return
	}
	seen := make(map[int32]bool, remaining)
	for i := 0; i < len(r.points) && remaining > 0; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		remaining--
		if !visit(r.members[p.member]) {
			return
		}
	}
}
