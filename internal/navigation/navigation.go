// Package navigation reproduces the paper's demo application (Section
// VIII-B): shortest-time navigation that exploits known real-time traffic
// light scheduling to bypass red lights, evaluated against conventional
// navigation on the Fig. 15 grid topology (1 km blocks, lights with cycle
// lengths drawn from [120 s, 300 s], red == green).
//
// The label-setting search itself lives in roadnet
// ((*Network).EarliestArrival, with the repository's one heap and one
// pooled scratch); a planner here is the wait oracle it hands that
// search, so the planners differ only in what they charge at a light:
//
//   - ShortestTimePlanner: conventional navigation — free-flow drive
//     times only (roadnet's ShortestPath); light waits are ignored during
//     planning and only suffered during evaluation.
//   - BelievedPlanner: the drive plus the wait under the light schedules
//     a ScheduleSource gives at the arrival time — the exact wait under
//     ground truth with TruthSource, or under pipeline-identified
//     schedules. Waits are FIFO (arriving earlier never makes you leave
//     later), so label setting is exact.
//   - EnumeratingPlanner: the paper's strategy — enumerate all simple
//     trajectories within a hop budget, evaluate the exact
//     time-dependent travel time of each, keep the minimum. Exponential,
//     as the paper notes; usable only on small grids.
//
// Drive replays a trip with re-planning at every intersection, exactly as
// the paper's demo updates its strategy "whenever the car meets an
// intersection".
package navigation

import (
	"fmt"
	"math"

	"taxilight/internal/roadnet"
)

// WaitAt returns how long a vehicle entering the intersection node at
// time t from the given segment waits before it may proceed. Unsignalised
// nodes never impose a wait.
func WaitAt(net *roadnet.Network, seg *roadnet.Segment, t float64) float64 {
	node := net.Node(seg.To)
	if node.Light == nil {
		return 0
	}
	return node.Light.ScheduleFor(seg.Approach(), t).WaitAt(t)
}

// RouteTime evaluates the exact time-dependent duration of driving a
// route starting at depart: free-flow drive time per segment plus the
// red-light wait at every intermediate intersection. No wait is suffered
// at the final destination.
func RouteTime(net *roadnet.Network, route roadnet.Route, depart float64) float64 {
	t := depart
	for i, sid := range route.Segments {
		seg := net.Segment(sid)
		t += seg.TravelTime()
		if i < len(route.Segments)-1 {
			t += WaitAt(net, seg, t)
		}
	}
	return t - depart
}

// Planner produces a route from a node at a given departure time.
type Planner interface {
	// Plan returns a route from src to dst departing at time t.
	Plan(src, dst roadnet.NodeID, t float64) (roadnet.Route, error)
}

// ShortestTimePlanner is conventional navigation: it minimises free-flow
// drive time and is blind to traffic lights.
type ShortestTimePlanner struct {
	Net *roadnet.Network
}

// Plan implements Planner.
func (p *ShortestTimePlanner) Plan(src, dst roadnet.NodeID, _ float64) (roadnet.Route, error) {
	return p.Net.ShortestPath(src, dst, func(s *roadnet.Segment) float64 { return s.TravelTime() })
}

// EnumeratingPlanner implements the paper's exhaustive strategy: every
// simple trajectory from src to dst within MaxExtraHops of the hop-count
// minimum is evaluated exactly and the fastest wins. Complexity is
// exponential in the grid size — the paper concedes it "can not be
// applied to large-scaled real road network" — so Plan refuses budgets
// that would explode.
type EnumeratingPlanner struct {
	Net *roadnet.Network
	// MaxExtraHops is the detour allowance beyond the minimum hop count.
	MaxExtraHops int
	// MaxPaths caps the number of evaluated trajectories as a safety
	// valve; 0 means DefaultMaxPaths.
	MaxPaths int
}

// DefaultMaxPaths bounds the enumeration effort.
const DefaultMaxPaths = 200000

// Plan implements Planner. When the enumeration hits MaxPaths the best
// route found so far is returned with Route.Truncated set; an error is
// reported only when no trajectory was found at all.
func (p *EnumeratingPlanner) Plan(src, dst roadnet.NodeID, depart float64) (roadnet.Route, error) {
	net := p.Net
	minHops, err := hopDistance(net, src, dst)
	if err != nil {
		return roadnet.Route{}, err
	}
	budget := minHops + p.MaxExtraHops
	maxPaths := p.MaxPaths
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}
	// Hop distances to dst prune branches that cannot finish in budget.
	toDst, err := hopDistancesTo(net, dst)
	if err != nil {
		return roadnet.Route{}, err
	}
	best := roadnet.Route{Cost: math.Inf(1)}
	visited := make([]bool, net.NumNodes())
	var path []roadnet.SegmentID
	paths := 0
	truncated := false
	var explore func(at roadnet.NodeID, t float64, hops int)
	explore = func(at roadnet.NodeID, t float64, hops int) {
		if truncated {
			return
		}
		if at == dst {
			if paths >= maxPaths {
				// The cap is exact: exactly maxPaths trajectories are
				// evaluated; the incumbent survives.
				truncated = true
				return
			}
			paths++
			if cost := t - depart; cost < best.Cost {
				best = roadnet.Route{Segments: append([]roadnet.SegmentID(nil), path...), Cost: cost}
			}
			return
		}
		if hops >= budget || toDst[at] < 0 || hops+toDst[at] > budget {
			return
		}
		if t-depart >= best.Cost {
			return // already slower than the incumbent
		}
		visited[at] = true
		defer func() { visited[at] = false }()
		for _, sid := range net.Node(at).Out {
			seg := net.Segment(sid)
			if visited[seg.To] {
				continue
			}
			nt := t + seg.TravelTime()
			if seg.To != dst {
				nt += WaitAt(net, seg, nt)
			}
			path = append(path, sid)
			explore(seg.To, nt, hops+1)
			path = path[:len(path)-1]
			if truncated {
				return
			}
		}
	}
	explore(src, depart, 0)
	if math.IsInf(best.Cost, 1) {
		if truncated {
			return roadnet.Route{}, fmt.Errorf("navigation: enumeration exceeded %d paths before finding a route", maxPaths)
		}
		return roadnet.Route{}, fmt.Errorf("navigation: no trajectory within %d hops", budget)
	}
	best.Truncated = truncated
	return best, nil
}

// hopDistance returns the minimum directed hop count from src to dst.
func hopDistance(net *roadnet.Network, src, dst roadnet.NodeID) (int, error) {
	d, err := hopDistancesFrom(net, src)
	if err != nil {
		return 0, err
	}
	if d[dst] < 0 {
		return 0, fmt.Errorf("navigation: node %d unreachable from %d", dst, src)
	}
	return d[dst], nil
}

// hopDistancesFrom runs BFS over outgoing segments, returning the
// directed hop count from the given node to every node (-1 when
// unreachable). Directionality matters on networks with one-way roads
// (e.g. OSM imports): A->B reachable does not imply B->A.
func hopDistancesFrom(net *roadnet.Network, from roadnet.NodeID) ([]int, error) {
	return hopBFS(net, from, false)
}

// hopDistancesTo runs BFS over incoming segments, returning the directed
// hop count from every node to the given node (-1 when unreachable).
func hopDistancesTo(net *roadnet.Network, to roadnet.NodeID) ([]int, error) {
	return hopBFS(net, to, true)
}

func hopBFS(net *roadnet.Network, origin roadnet.NodeID, reverse bool) ([]int, error) {
	if int(origin) >= net.NumNodes() || origin < 0 {
		return nil, fmt.Errorf("navigation: node %d out of range", origin)
	}
	dist := make([]int, net.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[origin] = 0
	queue := []roadnet.NodeID{origin}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		var edges []roadnet.SegmentID
		if reverse {
			edges = net.Node(at).In
		} else {
			edges = net.Node(at).Out
		}
		for _, sid := range edges {
			var next roadnet.NodeID
			if reverse {
				next = net.Segment(sid).From
			} else {
				next = net.Segment(sid).To
			}
			if dist[next] < 0 {
				dist[next] = dist[at] + 1
				queue = append(queue, next)
			}
		}
	}
	return dist, nil
}

// TripResult summarises one simulated trip.
type TripResult struct {
	// Duration is the realised travel time in seconds, including waits.
	Duration float64
	// Distance is the driven distance in metres.
	Distance float64
	// Waits is the total time spent waiting at red lights.
	Waits float64
	// Hops is the number of segments driven.
	Hops int
}

// Drive replays a trip under a planner, re-planning at every intersection
// (the paper's strategy update rule) and suffering the actual waits. The
// step limit guards against planners that oscillate.
func Drive(net *roadnet.Network, planner Planner, src, dst roadnet.NodeID, depart float64) (TripResult, error) {
	var res TripResult
	at := src
	t := depart
	maxSteps := 4 * net.NumNodes()
	for at != dst {
		if res.Hops >= maxSteps {
			return res, fmt.Errorf("navigation: trip exceeded %d hops (planner oscillating?)", maxSteps)
		}
		route, err := planner.Plan(at, dst, t)
		if err != nil {
			return res, err
		}
		if len(route.Segments) == 0 {
			return res, fmt.Errorf("navigation: empty route from %d to %d", at, dst)
		}
		seg := net.Segment(route.Segments[0])
		t += seg.TravelTime()
		res.Distance += seg.Length()
		res.Hops++
		if seg.To != dst {
			w := WaitAt(net, seg, t)
			res.Waits += w
			t += w
		}
		at = seg.To
	}
	res.Duration = t - depart
	return res, nil
}
