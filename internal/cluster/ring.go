// Package cluster turns N lightd processes into one service: a
// consistent-hash ring partitions the (light, approach) keyspace across
// nodes, a small gossip protocol tracks membership and failure, every
// published estimate is replicated to R-1 peers by shipping WAL
// segments, and a thin HTTP router forwards per-key queries to their
// owner and scatter-gathers the whole-city snapshot. When a node dies,
// its replicas promote the replicated estimates and the ring reroutes —
// rerouted keys answer immediately, marked no worse than "stale", until
// the next local estimation round refreshes them.
package cluster

import (
	"hash/fnv"
	"sort"

	"taxilight/internal/mapmatch"
)

// point is one virtual node on the hash circle.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. It is immutable
// once built; the node rebuilds it when gossip changes the member set.
// Liveness is not baked in — Owners takes an alive filter, so the same
// ring answers both "who stores replicas of k" (static placement,
// alive == nil) and "who serves k right now" (alive-filtered).
type Ring struct {
	points []point
}

// NewRing builds a ring over nodes with vnodes virtual points each
// (virtualNodes if vnodes <= 0).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = virtualNodes
	}
	r := &Ring{points: make([]point, 0, len(nodes)*vnodes)}
	for _, id := range nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: vnodeHash(id, i), node: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.node < b.node // ties are vanishingly rare; break them deterministically
	})
	return r
}

// mix64 is the splitmix64 finalizer. FNV alone avalanches poorly on
// short inputs — virtual points of one node land clustered on the
// circle and the load skews badly; the finalizer spreads them.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyHash places a partition key on the circle by its light id alone —
// deliberately ignoring the approach. The identification pipeline
// enhances each approach with its perpendicular approach's records
// (mirrored samples, dwell runs), so the two approaches of one light
// must land on the same node or a node would estimate with less context
// than a single process sees. Serving and replication still key on the
// full (light, approach) pair; only placement is per light.
func keyHash(k mapmatch.Key) uint64 {
	h := fnv.New64a()
	var b [8]byte
	v := uint64(int64(k.Light))
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	return mix64(h.Sum64())
}

// vnodeHash places virtual point i of one node on the circle.
func vnodeHash(node string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	var b [5]byte
	for j := 0; j < 4; j++ {
		b[1+j] = byte(i >> (8 * j))
	}
	h.Write(b[:])
	return mix64(h.Sum64())
}

// Owners returns up to rf distinct nodes for k, walking clockwise from
// the key's point and skipping nodes the alive filter rejects (nil
// accepts every node — the static replica placement). The first entry
// is the primary.
func (r *Ring) Owners(k mapmatch.Key, rf int, alive func(string) bool) []string {
	if len(r.points) == 0 || rf <= 0 {
		return nil
	}
	start := r.start(k)
	out := make([]string, 0, rf)
	seen := make(map[string]bool, rf)
	for i := 0; i < len(r.points) && len(out) < rf; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		if alive != nil && !alive(p.node) {
			continue
		}
		out = append(out, p.node)
	}
	return out
}

// Primary returns the first owner of k under the alive filter, or ""
// when no node qualifies. It is Owners(k, 1, alive)[0] without the
// allocation — this sits on the per-record ingest path.
func (r *Ring) Primary(k mapmatch.Key, alive func(string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	start := r.start(k)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if alive == nil || alive(p.node) {
			return p.node
		}
	}
	return ""
}

// start locates the first circle point at or clockwise of k's hash.
func (r *Ring) start(k mapmatch.Key) int {
	h := keyHash(k)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the circle
	}
	return i
}
