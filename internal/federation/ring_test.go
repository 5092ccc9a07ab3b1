package federation

import (
	"fmt"
	"testing"
)

func ringOf(n int) *Ring {
	r := NewRing(DefaultReplicas)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("cluster-%02d", i))
	}
	return r
}

func sampleOwners(r *Ring, keys int) map[string]string {
	owners := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("tenant-%d", i%97)
		d := fmt.Sprintf("sha256:%08x", i)
		o, ok := r.Owner(k, d)
		if !ok {
			panic("ring empty")
		}
		owners[k+"\x00"+d] = o
	}
	return owners
}

// TestRingStability pins the consistent-hash minimal-disruption
// property the ISSUE budgets: adding or removing one cluster in a
// 16-cluster ring remaps at most 2/16 of a 10k-key sample, and every
// remapped key moves to (or from) the changed member only.
func TestRingStability(t *testing.T) {
	const keys = 10_000
	budget := keys * 2 / 16 // 1250

	// A member leaves the way EvacuateCluster removes it: the ring is
	// rebuilt from the survivors.
	without := func(gone int) *Ring {
		r := NewRing(DefaultReplicas)
		for i := 0; i < 16; i++ {
			if i != gone {
				r.Add(fmt.Sprintf("cluster-%02d", i))
			}
		}
		return r
	}
	cases := []struct {
		name  string
		after func() (*Ring, string) // the changed ring and member
		added bool
	}{
		{"add one to 16", func() (*Ring, string) { r := ringOf(16); r.Add("cluster-new"); return r, "cluster-new" }, true},
		{"remove one of 16", func() (*Ring, string) { return without(7), "cluster-07" }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := sampleOwners(ringOf(16), keys)
			r, changed := tc.after()
			after := sampleOwners(r, keys)

			moved := 0
			for k, was := range before {
				now := after[k]
				if was == now {
					continue
				}
				moved++
				if tc.added && now != changed {
					t.Fatalf("key moved to %s, not the added member %s", now, changed)
				}
				if !tc.added && was != changed {
					t.Fatalf("key moved from %s, but only %s left the ring", was, changed)
				}
			}
			if moved > budget {
				t.Fatalf("%d/%d keys remapped, budget %d (2/16)", moved, keys, budget)
			}
			if moved == 0 {
				t.Fatalf("no keys remapped — the change had no effect")
			}
		})
	}
}

// TestRingDistribution sanity-checks that 128 virtual nodes per member
// keep ownership of a 10k-key sample roughly fair across 16 members.
func TestRingDistribution(t *testing.T) {
	r := ringOf(16)
	counts := make(map[string]int)
	for _, o := range sampleOwners(r, 10_000) {
		counts[o]++
	}
	if len(counts) != 16 {
		t.Fatalf("only %d of 16 members own keys", len(counts))
	}
	for m, c := range counts {
		// fair share is 625; 128 vnodes leaves real variance, so only
		// catastrophic skew (>6x either way) fails.
		if c < 100 || c > 3750 {
			t.Fatalf("member %s owns %d of 10000 keys — distribution badly skewed", m, c)
		}
	}
}

// TestRingLookupZeroAlloc pins the zero-allocation contract on the
// per-deploy hot path.
func TestRingLookupZeroAlloc(t *testing.T) {
	r := ringOf(16)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := r.Owner("tenant-acme", "sha256:deadbeefcafef00d"); !ok {
			t.Fatal("owner lookup failed")
		}
	}); allocs != 0 {
		t.Fatalf("Owner allocated %.1f times per lookup, want 0", allocs)
	}
}

// TestRingWalk checks that Walk visits every member exactly once, in a
// stable order, starting at the key's owner.
func TestRingWalk(t *testing.T) {
	r := ringOf(8)
	owner, _ := r.Owner("t", "d")
	var order []string
	r.Walk("t", "d", func(m string) bool {
		order = append(order, m)
		return true
	})
	if len(order) != 8 {
		t.Fatalf("walk visited %d members, want 8", len(order))
	}
	if order[0] != owner {
		t.Fatalf("walk started at %s, owner is %s", order[0], owner)
	}
	seen := make(map[string]bool)
	for _, m := range order {
		if seen[m] {
			t.Fatalf("walk visited %s twice", m)
		}
		seen[m] = true
	}
	// Early termination stops the walk.
	visits := 0
	r.Walk("t", "d", func(string) bool { visits++; return visits < 3 })
	if visits != 3 {
		t.Fatalf("walk continued past visit returning false: %d visits", visits)
	}
}

// TestRingEmptyAndSingle covers the degenerate rings.
func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing(0)
	if _, ok := r.Owner("t", "d"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	r.Walk("t", "d", func(string) bool { t.Fatal("empty ring walked"); return false })

	r.Add("only")
	r.Add("only") // duplicate add is a no-op
	if len(r.members) != 1 {
		t.Fatalf("duplicate Add grew the ring to %d", len(r.members))
	}
	if o, ok := r.Owner("t", "d"); !ok || o != "only" {
		t.Fatalf("single-member ring owner = %q, %v", o, ok)
	}
}

func BenchmarkRingAdd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := ringOf(16)
		r.Add("cluster-new")
	}
}
