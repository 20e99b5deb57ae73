package roadnet

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Route is a node-to-node path through the network: the ordered segment
// IDs driven, plus the total metric cost the search minimised.
type Route struct {
	Segments []SegmentID
	Cost     float64
	// Truncated marks a best-effort answer: the search hit a resource cap
	// (e.g. an enumeration path budget) before exhausting its space, so a
	// cheaper route may exist.
	Truncated bool
}

// Nodes returns the node sequence visited by the route, starting with the
// route's origin.
func (r Route) Nodes(net *Network) []NodeID {
	if len(r.Segments) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(r.Segments)+1)
	out = append(out, net.Segment(r.Segments[0]).From)
	for _, sid := range r.Segments {
		out = append(out, net.Segment(sid).To)
	}
	return out
}

// EdgeCost maps a segment to its traversal cost. Routing by distance uses
// Segment.Length; routing by free-flow time uses Segment.TravelTime.
type EdgeCost func(*Segment) float64

// ShortestPath runs Dijkstra from src to dst under the given cost
// function: EarliestArrival departing at 0 with every segment taking
// cost(seg). It returns an error when dst is unreachable or the cost
// function yields a negative edge.
func (n *Network) ShortestPath(src, dst NodeID, cost EdgeCost) (Route, error) {
	var negative error
	route, _, err := n.EarliestArrival(src, dst, 0, func(seg *Segment, t float64) float64 {
		c := cost(seg)
		if c < 0 {
			negative = fmt.Errorf("roadnet: negative edge cost %v on segment %d", c, seg.ID)
			return math.Inf(-1) // stops the search
		}
		return t + c
	}, nil)
	if negative != nil {
		return Route{}, negative
	}
	return route, err
}

// ErrUnreachable reports that no directed path leads from src to dst.
var ErrUnreachable = errors.New("unreachable")

// EarliestArrival is the network's one label-setting search. Labels are
// arrival times: a vehicle leaves src at depart, and arrive(seg, t)
// returns when a vehicle entering seg at t clears seg.To — the drive plus
// whatever the caller charges at that node (a red wait, nothing at dst).
// arrive must be FIFO (entering later never clears earlier) and must not
// return a time before t; both hold for any fixed-cycle schedule, and
// they make label setting exact. h, when non-nil, is an admissible and
// consistent lower bound on the remaining time to dst, turning Dijkstra
// into A*. The returned route's Cost is the arrival at dst minus depart;
// the int is the number of nodes settled, dst included.
func (n *Network) EarliestArrival(src, dst NodeID, depart float64,
	arrive func(seg *Segment, t float64) float64, h func(NodeID) float64) (Route, int, error) {
	nn := len(n.nodes)
	if int(src) >= nn || int(dst) >= nn || src < 0 || dst < 0 {
		return Route{}, 0, fmt.Errorf("roadnet: node out of range: %d -> %d", src, dst)
	}
	if math.IsNaN(depart) || math.IsInf(depart, 0) {
		return Route{}, 0, fmt.Errorf("roadnet: non-finite departure time %v", depart)
	}
	sc := acquireScratch(nn)
	defer searchPool.Put(sc)
	sc.arrive[src] = depart
	sc.push(src, depart) // alone on the frontier, so its key orders nothing
	settled := 0
	for len(sc.frontier) > 0 {
		at := sc.pop()
		if sc.done[at] {
			continue
		}
		sc.done[at] = true
		settled++
		if at == dst {
			break
		}
		t := sc.arrive[at]
		for _, sid := range n.nodes[at].Out {
			seg := n.segments[sid]
			ta := arrive(seg, t)
			if ta < t {
				return Route{}, settled, fmt.Errorf("roadnet: segment %d entered at %v clears at %v, before it was entered", sid, t, ta)
			}
			if ta < sc.arrive[seg.To] {
				sc.arrive[seg.To] = ta
				sc.prev[seg.To] = sid
				key := ta
				if h != nil {
					key += h(seg.To)
				}
				sc.push(seg.To, key)
			}
		}
	}
	if math.IsInf(sc.arrive[dst], 1) {
		return Route{}, settled, fmt.Errorf("roadnet: node %d %w from %d", dst, ErrUnreachable, src)
	}
	hops := 0
	for at := dst; at != src; at = n.segments[sc.prev[at]].From {
		hops++
	}
	var segs []SegmentID
	if hops > 0 {
		segs = make([]SegmentID, hops)
		for at := dst; at != src; at = n.segments[sc.prev[at]].From {
			hops--
			segs[hops] = sc.prev[at]
		}
	}
	return Route{Segments: segs, Cost: sc.arrive[dst] - depart}, settled, nil
}

// searchScratch is the working set of one EarliestArrival call: the label
// arrays and the frontier. Pooled, so a search allocates only the route
// it returns.
type searchScratch struct {
	arrive   []float64
	prev     []SegmentID
	done     []bool
	frontier []frontierItem
}

// frontierItem is one frontier entry, ordered by key: the node's arrival
// label plus the heuristic's bound on the rest of the trip.
type frontierItem struct {
	id  NodeID
	key float64
}

var searchPool = sync.Pool{New: func() interface{} { return new(searchScratch) }}

// acquireScratch returns a reset scratch sized for nn nodes.
func acquireScratch(nn int) *searchScratch {
	sc := searchPool.Get().(*searchScratch)
	if cap(sc.arrive) < nn {
		sc.arrive = make([]float64, nn)
		sc.prev = make([]SegmentID, nn)
		sc.done = make([]bool, nn)
	}
	sc.arrive = sc.arrive[:nn]
	sc.prev = sc.prev[:nn]
	sc.done = sc.done[:nn]
	for i := range sc.arrive {
		sc.arrive[i] = math.Inf(1)
		sc.prev[i] = -1
		sc.done[i] = false
	}
	sc.frontier = sc.frontier[:0]
	return sc
}

// push and pop are the repository's one binary min-heap, monomorphic so
// the search boxes nothing. Their sift rules are container/heap's — a
// parent moves only for a strictly smaller child, the left child wins a
// tie with the right — because the order equal keys pop in picks between
// equal-cost routes, and through trafficsim that decides every generated
// trace.
func (sc *searchScratch) push(id NodeID, key float64) {
	sc.frontier = append(sc.frontier, frontierItem{id: id, key: key})
	q := sc.frontier
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].key <= q[i].key {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (sc *searchScratch) pop() NodeID {
	q := sc.frontier
	top := q[0].id
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	sc.frontier = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q[l].key < q[min].key {
			min = l
		}
		if r < n && q[r].key < q[min].key {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}
