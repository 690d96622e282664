// Package ring implements the consistent-hash key ring that spreads
// profile aggregates across a small fleet of strided nodes without a
// coordinator: every producer and every operator tool hashes the same
// (workload, config) key onto the same ring and talks straight to the
// owning node. Virtual nodes smooth the load (each physical node owns many
// small arcs instead of one big one), and consistent hashing keeps
// reshuffling minimal — adding or removing one node of N moves only ~1/N
// of the keys, so a fleet change does not stampede every aggregate to a
// new owner.
//
// The ring is deterministic: it depends only on the node names (order
// insensitive), so independently configured clients agree on ownership as
// long as they agree on the member list.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is the per-node virtual point count. 128 points per node
// keeps the max/mean arc ratio under ~1.3 for small fleets, which is
// plenty for tens of nodes; raise it only if the fleet grows past that.
const virtualNodes = 128

// Ring maps string keys onto a fixed member list by consistent hashing.
// It is immutable after New and therefore safe for concurrent use.
type Ring struct {
	nodes  []string // sorted unique member names
	points []point  // sorted by hash
}

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node int // index into nodes
}

// Key is the canonical ring key of a profile aggregate. The separator
// cannot appear in workload names (they are benchmark identifiers), so
// distinct (workload, config) pairs never collide.
func Key(workload, config string) string { return workload + "|" + config }

// New builds a ring over the given nodes with virtualNodes points each.
// Node names are deduplicated; order does not matter. An empty node list
// is an error — the caller must know its fleet.
func New(nodes []string) (*Ring, error) {
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("ring: empty node name")
		}
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("ring: no nodes")
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]point, 0, len(uniq)*virtualNodes)}
	for ni, n := range uniq {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", n, v)), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between virtual points are broken by node order so
		// every member computes the same ring.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// hash64 is FNV-1a with a splitmix64 finalizer: cheap and stable across
// processes and Go versions (unlike maphash), with the avalanche pass
// spreading the clustered hashes FNV produces on short, similar strings
// ("a#0", "a#1", ...) uniformly over the ring.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes returns the sorted member list.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the node owning key: the first virtual point clockwise
// from the key's hash.
func (r *Ring) Owner(key string) string {
	return r.nodes[r.points[r.search(key)].node]
}

// search returns the index of the first point at or after the key's hash,
// wrapping past the top of the hash space back to the first point.
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
