package roadnet

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refShortestPath is the container/heap Dijkstra ShortestPath was before
// the search moved into EarliestArrival, kept verbatim as the oracle:
// trafficsim routes every taxi through ShortestPath, so which of several
// equal-cost routes wins decides every generated trace byte.
func refShortestPath(n *Network, src, dst NodeID, cost EdgeCost) (Route, error) {
	if int(src) >= len(n.nodes) || int(dst) >= len(n.nodes) || src < 0 || dst < 0 {
		return Route{}, fmt.Errorf("roadnet: node out of range: %d -> %d", src, dst)
	}
	dist := make([]float64, len(n.nodes))
	prev := make([]SegmentID, len(n.nodes))
	done := make([]bool, len(n.nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := &refNodeHeap{{id: src, d: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(refNodeItem)
		if done[it.id] {
			continue
		}
		done[it.id] = true
		if it.id == dst {
			break
		}
		for _, sid := range n.nodes[it.id].Out {
			s := n.segments[sid]
			c := cost(s)
			if c < 0 {
				return Route{}, fmt.Errorf("roadnet: negative edge cost %v on segment %d", c, sid)
			}
			if nd := dist[it.id] + c; nd < dist[s.To] {
				dist[s.To] = nd
				prev[s.To] = sid
				heap.Push(pq, refNodeItem{id: s.To, d: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Route{}, fmt.Errorf("roadnet: node %d unreachable from %d", dst, src)
	}
	var segs []SegmentID
	for at := dst; at != src; {
		sid := prev[at]
		segs = append(segs, sid)
		at = n.segments[sid].From
	}
	// Reverse into driving order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return Route{Segments: segs, Cost: dist[dst]}, nil
}

type refNodeItem struct {
	id NodeID
	d  float64
}

type refNodeHeap []refNodeItem

func (h refNodeHeap) Len() int            { return len(h) }
func (h refNodeHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h refNodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refNodeHeap) Push(x interface{}) { *h = append(*h, x.(refNodeItem)) }
func (h *refNodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestShortestPathMatchesReference requires the same segment sequence,
// not just the same cost, as the reference Dijkstra: on a uniform grid
// nearly every OD pair has many equal-cost routes, so this pins the pop
// order of the heap.
func TestShortestPathMatchesReference(t *testing.T) {
	gridNet := func(mut func(*GridConfig)) *Network {
		cfg := DefaultGridConfig()
		mut(&cfg)
		net, err := GenerateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	osm, err := ImportOSM(strings.NewReader(fixtureOSM), DefaultOSMConfig())
	if err != nil {
		t.Fatal(err)
	}
	nets := []struct {
		name  string
		net   *Network
		pairs int
	}{
		{"uniform 6x6", gridNet(func(*GridConfig) {}), 300},
		{"uniform 12x9", gridNet(func(c *GridConfig) { c.Rows, c.Cols = 12, 9 }), 300},
		{"rotated 8x8", gridNet(func(c *GridConfig) { c.Rows, c.Cols, c.RotationDeg = 8, 8, 27 }), 200},
		{"jittered 10x10", gridNet(func(c *GridConfig) { c.Rows, c.Cols, c.PosJitter, c.Seed = 10, 10, 120, 7 }), 200},
		{"rotated+jittered 7x11", gridNet(func(c *GridConfig) {
			c.Rows, c.Cols, c.RotationDeg, c.PosJitter, c.Seed = 7, 11, -33, 60, 3
		}), 200},
		{"osm fixture", osm, 100},
	}
	costs := []struct {
		name string
		fn   EdgeCost
	}{
		{"length", func(s *Segment) float64 { return s.Length() }},
		{"travel time", func(s *Segment) float64 { return s.TravelTime() }},
	}
	rng := rand.New(rand.NewSource(16))
	checked := 0
	for _, nc := range nets {
		nn := nc.net.NumNodes()
		for i := 0; i < nc.pairs; i++ {
			src, dst := NodeID(rng.Intn(nn)), NodeID(rng.Intn(nn))
			for _, c := range costs {
				want, wantErr := refShortestPath(nc.net, src, dst, c.fn)
				got, gotErr := nc.net.ShortestPath(src, dst, c.fn)
				if (wantErr == nil) != (gotErr == nil) ||
					(wantErr != nil && wantErr.Error() != gotErr.Error()) {
					t.Fatalf("%s %d->%d by %s: error %v, reference %v", nc.name, src, dst, c.name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %d->%d by %s:\n got %+v\nwant %+v", nc.name, src, dst, c.name, got, want)
				}
				checked++
			}
		}
	}
	if checked < 2000 {
		t.Fatalf("only %d comparisons ran", checked)
	}
}

func TestEarliestArrivalRefusals(t *testing.T) {
	net := mustGrid(t, DefaultGridConfig())
	drive := func(s *Segment, t float64) float64 { return t + s.TravelTime() }
	for _, depart := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// A self trip never calls arrive, so the departure check is all
		// that stands between a NaN and the caller's arithmetic.
		for _, dst := range []NodeID{8, 0} {
			if _, _, err := net.EarliestArrival(0, dst, depart, drive, nil); err == nil {
				t.Errorf("depart %v to node %d accepted", depart, dst)
			}
		}
	}
	backwards := func(s *Segment, t float64) float64 { return t - 1 }
	if _, _, err := net.EarliestArrival(0, 8, 100, backwards, nil); err == nil {
		t.Error("a segment cleared before it was entered was accepted")
	}
}

func TestEarliestArrivalHeuristic(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols, cfg.PosJitter = 10, 10, 90
	net := mustGrid(t, cfg)
	drive := func(s *Segment, t float64) float64 { return t + s.TravelTime() }
	rng := rand.New(rand.NewSource(5))
	fewer := 0
	for i := 0; i < 100; i++ {
		src, dst := NodeID(rng.Intn(100)), NodeID(rng.Intn(100))
		dstPos := net.Node(dst).Pos
		straight := func(id NodeID) float64 { return net.Node(id).Pos.Sub(dstPos).Norm() / cfg.SpeedLimit }
		plain, settledPlain, err := net.EarliestArrival(src, dst, 50, drive, nil)
		if err != nil {
			t.Fatal(err)
		}
		guided, settledGuided, err := net.EarliestArrival(src, dst, 50, drive, straight)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(plain.Cost-guided.Cost) > 1e-9 {
			t.Fatalf("%d->%d: A* cost %v, Dijkstra %v", src, dst, guided.Cost, plain.Cost)
		}
		if settledGuided > settledPlain {
			t.Fatalf("%d->%d: A* settled %d nodes, Dijkstra %d", src, dst, settledGuided, settledPlain)
		}
		if settledGuided < settledPlain {
			fewer++
		}
	}
	if fewer < 50 {
		t.Fatalf("the heuristic cut the search on only %d of 100 pairs", fewer)
	}
}
