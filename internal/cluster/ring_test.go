package cluster

import (
	"fmt"
	"testing"
)

func ringWith(vnodes int, members ...string) *Ring {
	r := NewRing(vnodes)
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("app-%d", i)
	}
	return keys
}

// Ownership must be a pure function of the member set: same members, same
// mapping — regardless of insertion order or which process computed it.
func TestRingDeterministicOwnership(t *testing.T) {
	a := ringWith(0, "r1", "r2", "r3", "r4")
	b := ringWith(0, "r4", "r2", "r1", "r3")
	for _, key := range testKeys(5000) {
		oa, ok := a.Owner(key)
		if !ok {
			t.Fatalf("no owner for %q", key)
		}
		ob, _ := b.Owner(key)
		if oa != ob {
			t.Fatalf("key %q: owner depends on insertion order (%s vs %s)", key, oa, ob)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing(8)
	if _, ok := r.Owner("x"); ok {
		t.Fatal("empty ring claims an owner")
	}
	r.Add("only")
	for _, key := range testKeys(100) {
		if o, _ := r.Owner(key); o != "only" {
			t.Fatalf("single-member ring routed %q to %q", key, o)
		}
	}
	// Idempotent add must not duplicate points.
	n := len(r.points)
	r.Add("only")
	if len(r.points) != n {
		t.Fatalf("re-adding a member grew the ring: %d -> %d points", n, len(r.points))
	}
}

// Adding one replica to N-1 members may move at most ~1/N of the keys
// (the new replica's arc); we bound it at 2/N to leave room for hash
// variance. Every moved key must have moved TO the new replica — a key
// moving between two surviving replicas would mean the ring reshuffles
// state it had no reason to touch.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	const keys = 20000
	for n := 2; n <= 8; n *= 2 {
		members := make([]string, n-1)
		for i := range members {
			members[i] = fmt.Sprintf("r%d", i)
		}
		r := ringWith(0, members...)
		before := map[string]string{}
		for _, key := range testKeys(keys) {
			before[key], _ = r.Owner(key)
		}
		r.Add("rNew")
		moved := 0
		for _, key := range testKeys(keys) {
			after, _ := r.Owner(key)
			if after == before[key] {
				continue
			}
			moved++
			if after != "rNew" {
				t.Fatalf("n=%d: key %q moved %s -> %s, not to the new replica", n, key, before[key], after)
			}
		}
		limit := 2 * keys / n
		if moved > limit {
			t.Errorf("n=%d: %d of %d keys moved on add, limit %d (2/N)", n, moved, keys, limit)
		}
		if moved == 0 {
			t.Errorf("n=%d: adding a replica moved no keys (it owns nothing)", n)
		}
	}
}

// Removing one replica of N must only move that replica's keys, each to
// some survivor, again within the 2/N bound.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	const keys = 20000
	for n := 2; n <= 8; n *= 2 {
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("r%d", i)
		}
		r := ringWith(0, members...)
		before := map[string]string{}
		for _, key := range testKeys(keys) {
			before[key], _ = r.Owner(key)
		}
		victim := "r0"
		r.Remove(victim)
		moved := 0
		for _, key := range testKeys(keys) {
			after, _ := r.Owner(key)
			if after != before[key] {
				moved++
				if before[key] != victim {
					t.Fatalf("n=%d: key %q moved %s -> %s though its owner survived", n, key, before[key], after)
				}
			}
			if after == victim {
				t.Fatalf("n=%d: key %q still owned by removed replica", n, key)
			}
		}
		limit := 2 * keys / n
		if moved > limit {
			t.Errorf("n=%d: %d of %d keys moved on remove, limit %d (2/N)", n, moved, keys, limit)
		}
	}
}

// Remove must be the exact inverse of Add: the mapping after add+remove
// is the mapping before, byte for byte.
func TestRingRemoveRestoresMapping(t *testing.T) {
	r := ringWith(0, "r1", "r2", "r3")
	before := map[string]string{}
	for _, key := range testKeys(5000) {
		before[key], _ = r.Owner(key)
	}
	r.Add("r4")
	r.Remove("r4")
	for _, key := range testKeys(5000) {
		if after, _ := r.Owner(key); after != before[key] {
			t.Fatalf("key %q: add+remove changed owner %s -> %s", key, before[key], after)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len() = %d after add+remove, want 3", r.Len())
	}
}

// Shares stay roughly balanced: with DefaultVnodes no replica of four may
// own more than half the keys, so adding replicas spreads independent apps
// instead of piling them onto one node. TestProxyForwardsConcurrently
// holds the other half of cluster scaling: the proxy forwards to those
// replicas in parallel.
func TestRingBalance(t *testing.T) {
	r := ringWith(0, "r1", "r2", "r3", "r4")
	counts := map[string]int{}
	const keys = 20000
	for _, key := range testKeys(keys) {
		o, _ := r.Owner(key)
		counts[o]++
	}
	for m, c := range counts {
		if c > keys/2 {
			t.Errorf("replica %s owns %d of %d keys (>50%%)", m, c, keys)
		}
		if c == 0 {
			t.Errorf("replica %s owns no keys", m)
		}
	}
}
