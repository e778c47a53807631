package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// hashVnodes is how many virtual points each node contributes to the
// ring. 64 vnodes keeps the per-node load imbalance within a few percent
// for small clusters without making lookups measurably slower.
const hashVnodes = 64

// HashRing maps tile-content hashes (CacheKeys) onto worker nodes with
// consistent hashing: each node owns the arcs clockwise-preceding its
// virtual points, so every key has exactly one owner and adding or
// removing a node only remaps the keys on its own arcs. The coordinator
// uses it to shard tile classification — and therefore tile caching —
// across nodes without duplication.
type HashRing struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int
}

// NewHashRing builds the ring over nodes 0..n−1.
func NewHashRing(n int) (*HashRing, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: hash ring needs ≥1 node, got %d", n)
	}
	h := &HashRing{points: make([]ringPoint, 0, n*hashVnodes)}
	for node := 0; node < n; node++ {
		for v := 0; v < hashVnodes; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("node%d#%d", node, v)))
			h.points = append(h.points, ringPoint{
				hash: binary.BigEndian.Uint64(sum[:8]),
				node: node,
			})
		}
	}
	sort.Slice(h.points, func(i, j int) bool { return h.points[i].hash < h.points[j].hash })
	return h, nil
}

// OwnerAvoiding returns the first live owner for key: the node of the
// first ring point at or clockwise-after the key's position, walking
// clockwise past points whose nodes are down. It falls back to the true
// owner when every node is reported down (callers detect that case
// separately).
func (h *HashRing) OwnerAvoiding(key CacheKey, down func(node int) bool) int {
	start := h.at(key)
	for i := 0; i < len(h.points); i++ {
		node := h.points[(start+i)%len(h.points)].node
		if !down(node) {
			return node
		}
	}
	return h.points[start].node
}

// at returns the index of the first ring point at or after the key's
// hash, wrapping past the top of the ring.
func (h *HashRing) at(key CacheKey) int {
	kh := binary.BigEndian.Uint64(key[:8])
	i := sort.Search(len(h.points), func(i int) bool { return h.points[i].hash >= kh })
	if i == len(h.points) {
		i = 0
	}
	return i
}
