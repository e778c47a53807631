package serve

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// ringTestKeys derives n deterministic content keys.
func ringTestKeys(n int) []CacheKey {
	keys := make([]CacheKey, n)
	for i := range keys {
		keys[i] = sha256.Sum256([]byte(fmt.Sprintf("tile-%d", i)))
	}
	return keys
}

// noneDown reports every node live, so OwnerAvoiding returns the key's
// true owner.
func noneDown(int) bool { return false }

// TestHashRingOwnership: every key has exactly one owner, ownership is
// stable across lookups and ring rebuilds, and the load spreads over all
// nodes.
func TestHashRingOwnership(t *testing.T) {
	const nodes, nkeys = 4, 4096
	h, err := NewHashRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHashRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, nodes)
	for _, key := range ringTestKeys(nkeys) {
		owner := h.OwnerAvoiding(key, noneDown)
		if owner < 0 || owner >= nodes {
			t.Fatalf("owner %d out of range", owner)
		}
		if again := h.OwnerAvoiding(key, noneDown); again != owner {
			t.Fatalf("owner flapped: %d then %d", owner, again)
		}
		if other := h2.OwnerAvoiding(key, noneDown); other != owner {
			t.Fatalf("independent ring disagrees: %d vs %d", owner, other)
		}
		counts[owner]++
	}
	for node, n := range counts {
		if n == 0 {
			t.Errorf("node %d owns no keys out of %d", node, nkeys)
		}
	}
	t.Logf("key distribution: %v", counts)
}

// TestHashRingAvoidance: with nodes down, OwnerAvoiding returns only
// live nodes, leaves keys of live owners untouched, and reassigns only
// the dead node's keys.
func TestHashRingAvoidance(t *testing.T) {
	const nodes, nkeys = 3, 2048
	h, err := NewHashRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	keys := ringTestKeys(nkeys)
	for _, key := range keys {
		if got, want := h.OwnerAvoiding(key, noneDown), h.points[h.at(key)].node; got != want {
			t.Fatalf("no nodes down: OwnerAvoiding %d != owner %d", got, want)
		}
	}
	const dead = 1
	oneDown := func(n int) bool { return n == dead }
	moved := 0
	for _, key := range keys {
		owner := h.OwnerAvoiding(key, noneDown)
		rerouted := h.OwnerAvoiding(key, oneDown)
		if rerouted == dead {
			t.Fatalf("OwnerAvoiding returned the down node")
		}
		if owner != dead && rerouted != owner {
			t.Fatalf("live node's key moved: %d → %d", owner, rerouted)
		}
		if owner == dead {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("dead node owned no keys — avoidance path untested")
	}
	t.Logf("%d of %d keys rerouted off node %d", moved, nkeys, dead)
}

// TestHashRingValidation: an empty ring is rejected.
func TestHashRingValidation(t *testing.T) {
	if _, err := NewHashRing(0); err == nil {
		t.Fatal("NewHashRing(0) succeeded")
	}
}
